package hier

import (
	"fmt"
	"sort"
	"testing"

	"xcache/internal/check"
	"xcache/internal/metatag"
	"xcache/internal/sim"
)

// The coherence checker the check package ran before the hierarchy
// checked itself: a map-and-sort snapshot of every line, the three rules
// over it, and a map oracle fed the values the ports handled. It stays
// as the reference the directory's own audit must agree with after
// every cycle (TrackVerdicts).

// refLine is one line's cross-hierarchy state in a reference snapshot.
type refLine struct {
	Key     [2]uint64
	L1      []int8 // per port: 0 when absent, else MesiS or MesiM
	L2      bool   // present and stable in the shared L2
	Pending bool   // a directory transaction, L2 walk, recall or writeback is in flight
}

// refCohSnapshot builds the hierarchy's protocol state the direct way: a
// map of every line any level holds, one []int8 per line and a sorted
// key list, all fresh on every call.
func refCohSnapshot(d *Directory) []refLine {
	acc := map[metatag.Key]*refLine{}
	get := func(key metatag.Key) *refLine {
		ln := acc[key]
		if ln == nil {
			ln = &refLine{Key: [2]uint64(key), L1: make([]int8, len(d.ports))}
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
	lines := make([]refLine, 0, len(keys))
	for _, k := range keys {
		lines = append(lines, *acc[k])
	}
	return lines
}

// refValue is one value a port fed its directory's oracle.
type refValue struct {
	cy   sim.Cycle
	port int
	key  metatag.Key
	kind uint8
	v    uint64
}

// refChecker is the reference verdict for one system.
type refChecker struct {
	d      *Directory
	oracle map[metatag.Key]uint64
	values []refValue // fed since the last verdict, in the order fed
}

// verdict returns the directory's latched liveness violation, else the
// first stale value among the ones fed since the last call, else the
// first single-writer or inclusion violation in the snapshot.
func (r *refChecker) verdict(c sim.Cycle) error {
	if r.d.err != nil {
		return r.d.err
	}
	values := r.values
	r.values = nil
	for _, ev := range values {
		want, seeded := r.oracle[ev.key]
		switch ev.kind {
		case valGrant, valHit:
			if !seeded {
				r.oracle[ev.key] = ev.v
				continue
			}
			if ev.v != want {
				kind := "grant"
				if ev.kind == valHit {
					kind = "hit"
				}
				return &check.CoherenceViolation{Cycle: ev.cy, Rule: "no-stale-fill", Key: [2]uint64(ev.key),
					Detail: fmt.Sprintf("port %d %s served value %d, oracle holds %d", ev.port, kind, ev.v, want)}
			}
		case valStore:
			r.oracle[ev.key] = ev.v
		}
	}
	for _, ln := range refCohSnapshot(r.d) {
		mods, shared, modPort := 0, 0, -1
		for p, st := range ln.L1 {
			switch st {
			case MesiM:
				mods++
				modPort = p
			case MesiS:
				shared++
			}
		}
		if mods > 1 {
			return &check.CoherenceViolation{Cycle: c, Rule: "single-writer", Key: ln.Key,
				Detail: fmt.Sprintf("%d ports hold the line Modified", mods)}
		}
		if mods == 1 && shared > 0 {
			return &check.CoherenceViolation{Cycle: c, Rule: "single-writer", Key: ln.Key,
				Detail: fmt.Sprintf("port %d holds M while %d other ports hold S", modPort, shared)}
		}
		if (mods > 0 || shared > 0) && !ln.L2 && !ln.Pending {
			return &check.CoherenceViolation{Cycle: c, Rule: "inclusion", Key: ln.Key,
				Detail: "line cached in an L1 but absent from the L2 with no transaction in flight"}
		}
	}
	return nil
}

// VerdictLockstep is one system's verdict comparison: the directory's
// CheckInvariants against the reference, after every cycle its protocol
// check is on, until either gives a verdict.
type VerdictLockstep struct {
	// Cycles counts the cycles compared.
	Cycles int
	// Verdict is the violation both sides reported, "" while none.
	Verdict string
	// Diverged is the first disagreement, "" while the two agree.
	Diverged string

	s   *CohSystem
	ref *refChecker
}

// AfterStep implements sim.Observer.
func (l *VerdictLockstep) AfterStep(c sim.Cycle) {
	if l.s.Dir.coh == nil || l.Verdict != "" || l.Diverged != "" {
		return
	}
	l.Cycles++
	got, want := errText(l.s.Dir.CheckInvariants(c)), errText(l.ref.verdict(c))
	if got != want {
		l.Diverged = fmt.Sprintf("cycle %d: audit %q, reference %q", c, got, want)
		return
	}
	l.Verdict = got
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TrackVerdicts makes every system NewCohSystem builds, until stop is
// called, compare its directory's coherence verdict with the reference
// after every cycle. The reference sees the ports' values only until
// stop, so call it after the runs. stop returns one VerdictLockstep per
// system, in build order. Tests that use it must not run in parallel
// with other tests that build coherent systems.
func TrackVerdicts() (stop func() []*VerdictLockstep) {
	var all []*VerdictLockstep
	testHookNewCohSystem = func(s *CohSystem) {
		l := &VerdictLockstep{s: s, ref: &refChecker{d: s.Dir, oracle: map[metatag.Key]uint64{}}}
		s.K.Observe(l)
		all = append(all, l)
	}
	testHookCohValue = func(o *cohCheck, cy sim.Cycle, port int, key metatag.Key, kind uint8, v uint64) {
		for _, l := range all {
			if l.s.Dir.coh == o {
				l.ref.values = append(l.ref.values, refValue{cy: cy, port: port, key: key, kind: kind, v: v})
				return
			}
		}
	}
	return func() []*VerdictLockstep {
		testHookNewCohSystem, testHookCohValue = nil, nil
		return all
	}
}

// RequireLockstep fails t unless every tracked system compared at least
// one cycle and agreed with the reference on all of them.
func RequireLockstep(t *testing.T, ls []*VerdictLockstep, systems int) {
	t.Helper()
	if len(ls) != systems {
		t.Fatalf("%d systems built, want %d", len(ls), systems)
	}
	for i, l := range ls {
		if l.Diverged != "" {
			t.Fatalf("system %d: coherence verdict diverged from the reference after %d cycles: %s", i, l.Cycles, l.Diverged)
		}
		if l.Cycles == 0 {
			t.Fatalf("system %d: no cycle compared", i)
		}
	}
}

// TestCohSnapshotLockstep runs the litmus suite, the FuzzCoherence
// corpus (coherent, flat and snoop-drop rigs) and TestCohSupervisedAbort's
// aborts with the reference checker beside the directory's own, and
// requires the two to give the same verdict after every cycle. The
// coh-share cells run the same way in TestCohShareSnapshotLockstep.
func TestCohSnapshotLockstep(t *testing.T) {
	for _, l := range LitmusTests() {
		t.Run("litmus/"+l.Name, func(t *testing.T) {
			stop := TrackVerdicts()
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
			stop := TrackVerdicts()
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
			stop := TrackVerdicts()
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

// corruptAfter is a kernel observer that corrupts the system once, after
// cycle at: after the harness has audited that cycle, so the next
// cycle's audit is the first to see the corruption.
type corruptAfter struct {
	at sim.Cycle
	fn func()
}

// AfterStep implements sim.Observer.
func (c *corruptAfter) AfterStep(cy sim.Cycle) {
	if cy == c.at {
		c.fn()
	}
}

// TestCohRulesFire corrupts a running 2-port system, whose ports each
// load 8 keys 200 times, after cycle 300, once per rule the audit
// checks, and requires the audit and the reference to report the
// expected rule, key and cycle. The tag corruptions are seen by the
// next cycle's audit; an overwritten data word when its port next hits
// the key, at port 0's next load of key 3 (cycle 309).
func TestCohRulesFire(t *testing.T) {
	const key = 3
	scripts := make([][]ScriptOp, 2)
	for p := range scripts {
		for i := 0; i < 200; i++ {
			scripts[p] = append(scripts[p], Ld(uint64(i+p)%8))
		}
	}
	// held returns port p's entry for the key; the corruptions expect
	// both ports to hold it Shared.
	held := func(t *testing.T, s *CohSystem, p int) *metatag.Entry {
		e := s.Ports[p].Tags.Probe(keyOf(key))
		if e == nil || e.State != MesiS {
			t.Fatalf("port %d does not hold key %d Shared at the corruption", p, key)
		}
		return e
	}
	for _, tc := range []struct {
		name   string
		rule   string
		cycle  sim.Cycle
		detail string
		fn     func(t *testing.T, s *CohSystem)
	}{
		{"M in two ports", "single-writer", 301, "2 ports hold the line Modified", func(t *testing.T, s *CohSystem) {
			held(t, s, 0).State = MesiM
			held(t, s, 1).State = MesiM
		}},
		{"M beside S", "single-writer", 301, "port 1 holds M while 1 other ports hold S", func(t *testing.T, s *CohSystem) {
			held(t, s, 0)
			held(t, s, 1).State = MesiM
		}},
		{"L2 line dropped", "inclusion", 301, "line cached in an L1 but absent from the L2 with no transaction in flight", func(t *testing.T, s *CohSystem) {
			held(t, s, 0)
			e := s.L2.Ctrl.Tags.Probe(keyOf(key))
			if ln := &s.Dir.lines[key]; e == nil || e.Walker != metatag.NoWalker || ln.busy() || ln.pendingBI || ln.l2Ops > 0 {
				t.Fatalf("key %d is not stable in the L2 with nothing in flight at the corruption", key)
			}
			s.L2.Ctrl.Tags.Dealloc(e)
		}},
		{"stale data word", "no-stale-fill", 309, "port 0 hit served value 999, oracle holds 103", func(t *testing.T, s *CohSystem) {
			l1 := s.Ports[0]
			l1.Data.Write(l1.Data.SectorWordBase(held(t, s, 0).SectorBase), 999)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stop := TrackVerdicts()
			defer stop()
			s, err := NewCohSystem(CohConfig{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				s.Seed(i, uint64(100+i))
			}
			h := check.Attach(s.K, check.Default())
			s.K.Observe(&corruptAfter{at: 300, fn: func() { tc.fn(t, s) }})
			_, err = RunScripts(s, h, scripts, 100_000)
			ls := stop()
			RequireLockstep(t, ls, 1)
			want := (&check.CoherenceViolation{Cycle: tc.cycle, Rule: tc.rule, Key: [2]uint64(keyOf(key)), Detail: tc.detail}).Error()
			if got := errText(err); got != want {
				t.Fatalf("run error %q, want %q", got, want)
			}
			if ls[0].Verdict != want {
				t.Fatalf("audit and reference agreed on %q, want %q", ls[0].Verdict, want)
			}
		})
	}
}
