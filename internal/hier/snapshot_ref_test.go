package hier

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"xcache/internal/check"
	"xcache/internal/metatag"
	"xcache/internal/sim"
)

// refCohSnapshot builds the directory's snapshot the direct way: a map
// of every line any level holds, one []int8 per line and a sorted key
// list, all fresh on every call. TrackSnapshots compares CohSnapshot
// with it.
func refCohSnapshot(d *Directory) check.CohSnapshot {
	acc := map[metatag.Key]*check.CohLine{}
	get := func(key metatag.Key) *check.CohLine {
		ln := acc[key]
		if ln == nil {
			ln = &check.CohLine{Key: [2]uint64(key), L1: make([]int8, len(d.ports))}
			acc[key] = ln
		}
		return ln
	}
	for p, l1 := range d.ports {
		l1.Tags.ForEach(func(e *metatag.Entry) {
			get(e.Key).L1[p] = int8(e.State)
		})
	}
	d.l2.Tags.ForEach(func(e *metatag.Entry) {
		ln := get(e.Key)
		if e.Walker != metatag.NoWalker {
			ln.Pending = true // transient: a walker is filling it
		} else {
			ln.L2 = true
		}
	})
	for key := range d.lines {
		if dl := &d.lines[key]; dl.busy() || dl.pendingBI || dl.l2Ops > 0 {
			get(keyOf(key)).Pending = true
		}
	}
	keys := make([]metatag.Key, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	snap := check.CohSnapshot{Lines: make([]check.CohLine, 0, len(keys))}
	for _, k := range keys {
		snap.Lines = append(snap.Lines, *acc[k])
	}
	return snap
}

// diffSnapshots describes the first difference between two snapshots,
// or returns "".
func diffSnapshots(got, want check.CohSnapshot) string {
	for i := 0; i < max(len(got.Lines), len(want.Lines)); i++ {
		if i >= len(got.Lines) {
			return fmt.Sprintf("line %d: missing, reference has %+v", i, want.Lines[i])
		}
		if i >= len(want.Lines) {
			return fmt.Sprintf("line %d: %+v, reference has none", i, got.Lines[i])
		}
		g, w := got.Lines[i], want.Lines[i]
		if g.Key != w.Key || !slices.Equal(g.L1, w.L1) || g.L2 != w.L2 || g.Pending != w.Pending {
			return fmt.Sprintf("line %d: %+v, reference %+v", i, g, w)
		}
	}
	return ""
}

// SnapLockstep is one system's snapshot comparison: the cycles compared
// and the first difference, if any.
type SnapLockstep struct {
	Cycles   int
	Diverged string
	s        *CohSystem
}

// AfterStep implements sim.Observer.
func (l *SnapLockstep) AfterStep(c sim.Cycle) {
	if l.Diverged != "" {
		return
	}
	l.Cycles++
	if d := diffSnapshots(l.s.Dir.CohSnapshot(), refCohSnapshot(l.s.Dir)); d != "" {
		l.Diverged = fmt.Sprintf("cycle %d: %s", c, d)
	}
}

// TrackSnapshots makes every system NewCohSystem builds, until stop is
// called, compare its directory's snapshot with refCohSnapshot after
// every cycle. stop returns one SnapLockstep per system, in build order.
// Tests that use it must not run in parallel with other tests that build
// coherent systems.
func TrackSnapshots() (stop func() []*SnapLockstep) {
	var all []*SnapLockstep
	testHookNewCohSystem = func(s *CohSystem) {
		l := &SnapLockstep{s: s}
		s.K.Observe(l)
		all = append(all, l)
	}
	return func() []*SnapLockstep {
		testHookNewCohSystem = nil
		return all
	}
}

// RequireLockstep fails t unless every tracked system compared at least
// one cycle and agreed with the reference on all of them.
func RequireLockstep(t *testing.T, ls []*SnapLockstep, systems int) {
	t.Helper()
	if len(ls) != systems {
		t.Fatalf("%d systems built, want %d", len(ls), systems)
	}
	for i, l := range ls {
		if l.Diverged != "" {
			t.Fatalf("system %d: snapshot diverged from the reference after %d cycles: %s", i, l.Cycles, l.Diverged)
		}
		if l.Cycles == 0 {
			t.Fatalf("system %d: no cycle compared", i)
		}
	}
}

// TestCohSnapshotLockstep runs the litmus suite, the FuzzCoherence
// corpus (coherent, flat and snoop-drop rigs) and TestCohSupervisedAbort's
// aborts with the reference snapshot beside the directory's, and
// requires the two to agree after every cycle. The coh-share cells run
// the same way in TestCohShareSnapshotLockstep.
func TestCohSnapshotLockstep(t *testing.T) {
	for _, l := range LitmusTests() {
		t.Run("litmus/"+l.Name, func(t *testing.T) {
			stop := TrackSnapshots()
			_, err := RunLitmus(l)
			ls := stop()
			if err != nil {
				t.Fatal(err)
			}
			RequireLockstep(t, ls, 1)
		})
	}
	for i, data := range cohFuzzCorpus(t) {
		t.Run(fmt.Sprintf("fuzz/%d", i), func(t *testing.T) {
			stop := TrackSnapshots()
			defer func() { RequireLockstep(t, stop(), 3) }()
			checkCohInput(t, data)
		})
	}
	for _, tc := range []struct {
		name      string
		cfg       *check.Config
		maxCycles int
	}{
		{"budget", check.Default(), 5},
		{"stall", &check.Config{Watchdog: 5, Invariants: true}, 200_000},
	} {
		t.Run("coh-abort/"+tc.name, func(t *testing.T) {
			stop := TrackSnapshots()
			s, err := NewCohSystem(CohConfig{})
			if err != nil {
				t.Fatal(err)
			}
			h := check.Attach(s.K, tc.cfg)
			_, err = RunScripts(s, h, [][]ScriptOp{{Ld(0), St(0, 60)}, {Ld(0)}}, tc.maxCycles)
			ls := stop()
			if err == nil {
				t.Fatal("the run did not abort")
			}
			RequireLockstep(t, ls, 1)
		})
	}
}
