package hier

import (
	"errors"
	"strings"
	"testing"

	"xcache/internal/check"
	"xcache/internal/metatag"
)

// cohRun builds a system, seeds keys 0..n-1 with seed(i), and runs the
// scripts under full invariant checking.
func cohRun(t *testing.T, cfg CohConfig, seed func(int) uint64, scripts [][]ScriptOp) (*CohSystem, [][]uint64) {
	t.Helper()
	s, err := NewCohSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Cfg.NumKeys; i++ {
		s.Seed(i, seed(i))
	}
	h := check.Attach(s.K, check.Default())
	res, err := RunScripts(s, h, scripts, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	return s, res
}

// TestCohReadSharing: concurrent loads of one key leave both ports
// Shared, served by a single L2 walk.
func TestCohReadSharing(t *testing.T) {
	s, res := cohRun(t, CohConfig{}, func(i int) uint64 { return uint64(i + 100) }, [][]ScriptOp{
		{Ld(4), Ld(4), Ld(4)},
		{Ld(4), Ld(4)},
	})
	for p, vals := range res {
		for i, v := range vals {
			if v != 104 {
				t.Errorf("port %d load %d = %d, want 104", p, i, v)
			}
		}
	}
	if st := s.L2.Ctrl.Stats(); st.Misses != 1 {
		t.Errorf("L2 walks = %d, want 1 (one fill serves every sharer)", st.Misses)
	}
	if inv := s.Dir.Stats().Invals; inv != 0 {
		t.Errorf("%d invalidations for a read-only workload", inv)
	}
	// Repeat loads hit locally: 5 loads, 2 directory read transactions.
	if hits := s.Ports[0].Stats().Hits + s.Ports[1].Stats().Hits; hits != 3 {
		t.Errorf("L1 hits = %d, want 3", hits)
	}
}

// TestCohStoreInvalidates: a store recalls every reader's copy; the
// readers' next loads observe the new value.
func TestCohStoreInvalidates(t *testing.T) {
	s, res := cohRun(t, CohConfig{}, func(int) uint64 { return 9 }, [][]ScriptOp{
		{Ld(2), Poll(2, 77)},
		{Ld(2), St(2, 77)},
	})
	if res[0][0] != 9 || res[1][0] != 9 {
		t.Fatalf("initial loads = %d/%d, want 9", res[0][0], res[1][0])
	}
	if res[0][1] != 77 {
		t.Fatalf("port 0 re-read %d after the store, want 77", res[0][1])
	}
	if s.Dir.Stats().Invals == 0 {
		t.Error("store over a shared copy sent no invalidation")
	}
}

// TestCohL1EvictionWriteback: a Modified line silently evicted from a
// one-entry L1 reaches the L2, and another port reads it back intact.
func TestCohL1EvictionWriteback(t *testing.T) {
	cfg := CohConfig{L1: L1Config{Sets: 1, Ways: 1, WordsPerSector: 1}}
	s, res := cohRun(t, cfg, func(int) uint64 { return 0 }, [][]ScriptOp{
		// Same-set stores: the second evicts the first's M line.
		{St(1, 11), St(2, 22), Ld(1)},
		{Poll(1, 11), Poll(2, 22)},
	})
	if res[0][2] != 11 {
		t.Errorf("port 0 re-read key 1 = %d, want 11", res[0][2])
	}
	st := s.Dir.Stats()
	if st.L1Evictions == 0 {
		t.Error("no L1 eviction despite a one-entry cache")
	}
	if st.Writebacks == 0 {
		t.Error("evicted Modified value never written back to the L2")
	}
}

// TestCohMergeSerialization: merges from every port land exactly once
// regardless of interleaving; MergeMin keeps the global minimum.
func TestCohMergeSerialization(t *testing.T) {
	_, res := cohRun(t, CohConfig{Ports: 3}, func(int) uint64 { return 50 }, [][]ScriptOp{
		{Merge(0, 1), MergeMin(1, 30), Poll(0, 50+1+2+3)},
		{Merge(0, 2), MergeMin(1, 40), Poll(0, 56)},
		{Merge(0, 3), MergeMin(1, 35), Poll(0, 56), Poll(1, 30)},
	})
	if got := res[2][3]; got != 30 {
		t.Errorf("MergeMin converged to %d, want 30", got)
	}
}

// TestCohFaultRetry: with half the snoops dropped, the timeout+resend
// path recovers and the run still produces coherent values.
func TestCohFaultRetry(t *testing.T) {
	cfg := CohConfig{Faults: CohFaults{DropSnoop: 0.5, Seed: 7}}
	s, res := cohRun(t, cfg, func(int) uint64 { return 5 }, [][]ScriptOp{
		{Ld(0), Poll(0, 60)},
		{Ld(0), St(0, 60)},
	})
	if res[0][1] != 60 {
		t.Errorf("re-read %d after faulty invalidation, want 60", res[0][1])
	}
	st := s.Dir.Stats()
	if st.SnoopDrops == 0 {
		t.Fatal("fault injection armed but nothing was dropped")
	}
	if st.SnoopRetry == 0 {
		t.Error("drops occurred but no snoop was retried")
	}
}

// TestCohFaultLiveness: with every snoop dropped, the retry budget runs
// out and the directory latches a typed liveness violation — the protocol
// traps instead of silently diverging. The supervised runner classifies
// it as FailCoherence.
func TestCohFaultLiveness(t *testing.T) {
	s, err := NewCohSystem(CohConfig{Faults: CohFaults{DropSnoop: 1.0, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	h := check.Attach(s.K, check.Default())
	_, err = RunScripts(s, h, [][]ScriptOp{
		{Ld(0), Poll(0, 60)},
		{Ld(0), St(0, 60)},
	}, 50_000)
	if err == nil {
		t.Fatal("dropped invalidations silently succeeded")
	}
	var cv *check.CoherenceViolation
	if !errors.As(err, &cv) || cv.Rule != "liveness" {
		t.Fatalf("error %v, want a liveness CoherenceViolation", err)
	}
	// The supervised Run classifies the latched violation as FailCoherence.
	ok, rep := check.Run(h, s.K, func() bool { return false }, 10)
	if ok || rep == nil || rep.Kind != check.FailCoherence {
		t.Fatalf("supervised run reported %+v, want FailCoherence", rep)
	}
}

// TestCohSupervisedAbort: under a harness, a blown cycle budget and a
// watchdog stall abort RunScripts with a typed *check.Failure carrying
// the stall report, as check.Run does for the DSAs.
func TestCohSupervisedAbort(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cfg       *check.Config
		maxCycles int
		want      check.FailureKind
	}{
		{"budget", check.Default(), 5, check.FailBudget},
		{"stall", &check.Config{Watchdog: 5, Invariants: true}, 200_000, check.FailStall},
	} {
		s, err := NewCohSystem(CohConfig{})
		if err != nil {
			t.Fatal(err)
		}
		h := check.Attach(s.K, tc.cfg)
		_, err = RunScripts(s, h, [][]ScriptOp{{Ld(0), St(0, 60)}, {Ld(0)}}, tc.maxCycles)
		var cf *check.Failure
		if !errors.As(err, &cf) || cf.Kind != tc.want || cf.Report == nil {
			t.Errorf("%s: error %v, want a *check.Failure of kind %s with a report", tc.name, err, tc.want)
		}
	}
}

// TestCohSnapshotShape: the reference checker's snapshot is sorted,
// sized to the port count, and reflects resident states.
func TestCohSnapshotShape(t *testing.T) {
	s, _ := cohRun(t, CohConfig{}, func(int) uint64 { return 1 }, [][]ScriptOp{
		{Ld(3), St(6, 2)},
		{Ld(3)},
	})
	var sawShared, sawMod bool
	last := uint64(0)
	for i, ln := range refCohSnapshot(s.Dir) {
		if i > 0 && ln.Key[0] < last {
			t.Fatal("snapshot lines not sorted by key")
		}
		last = ln.Key[0]
		if len(ln.L1) != 2 {
			t.Fatalf("line has %d port states, want 2", len(ln.L1))
		}
		if ln.Key[0] == 3 && ln.L1[0] == MesiS && ln.L1[1] == MesiS {
			sawShared = true
		}
		if ln.Key[0] == 6 && ln.L1[0] == MesiM {
			sawMod = true
		}
	}
	if !sawShared || !sawMod {
		t.Errorf("snapshot missing expected states (shared=%v mod=%v)", sawShared, sawMod)
	}
}

// TestCohUncheckedKeepsNoProtocolCheck: an unchecked run allocates no
// audit state and hands no oracle to the ports. check.Attach with
// invariants turns the audit on, sized to the key count, and every port
// feeds the directory's oracle.
func TestCohUncheckedKeepsNoProtocolCheck(t *testing.T) {
	scripts := [][]ScriptOp{{Ld(0), St(0, 5), Merge(1, 3)}, {Ld(1), Ld(0), Merge(0, 2)}}
	s, err := NewCohSystem(CohConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunScripts(s, nil, scripts, 200_000); err != nil {
		t.Fatal(err)
	}
	if s.Dir.coh != nil {
		t.Fatal("unchecked run: the directory holds audit state")
	}
	for p, l1 := range s.Ports {
		if l1.coh != nil {
			t.Fatalf("unchecked run: port %d holds a value oracle", p)
		}
	}

	s, err = NewCohSystem(CohConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h := check.Attach(s.K, check.Default())
	if s.Dir.coh == nil || len(s.Dir.coh.keys) != s.Cfg.NumKeys {
		t.Fatal("check.Attach did not size the directory's audit state to the key count")
	}
	for p, l1 := range s.Ports {
		if l1.coh != s.Dir.coh {
			t.Fatalf("port %d does not feed the directory's oracle under an attached checker", p)
		}
	}
	if _, err := RunScripts(s, h, scripts, 200_000); err != nil {
		t.Fatal(err)
	}
	for _, key := range []int{0, 1} {
		if !s.Dir.coh.keys[key].seeded {
			t.Fatalf("the oracle saw no value of key %d", key)
		}
	}
}

// TestCohKeyRange: the element array holds NumKeys keys. RunScripts
// refuses a script that names a key past it before the first cycle, and
// a port refuses such a request pushed directly, latching an error that
// CohSystem.Err returns, without walking past the array.
func TestCohKeyRange(t *testing.T) {
	const keys = 16
	build := func(t *testing.T) *CohSystem {
		s, err := NewCohSystem(CohConfig{NumKeys: keys})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, tc := range []struct {
		name string
		op   ScriptOp
		ok   bool
	}{
		{"last key", Merge(keys-1, 5), true},
		{"NumKeys", Merge(keys, 5), false},
		{"far load", Ld(1000), false},
		{"2^40", Ld(1 << 40), false},
	} {
		t.Run("script/"+tc.name, func(t *testing.T) {
			s := build(t)
			_, err := RunScripts(s, nil, [][]ScriptOp{{Ld(0)}, {tc.op}}, 100_000)
			if tc.ok != (err == nil) {
				t.Fatalf("RunScripts error %v, want success %t", err, tc.ok)
			}
			if !tc.ok {
				if want := "port 1 op 0"; !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name %q", err, want)
				}
				if s.K.Cycle() != 0 || s.L2.Ctrl.Stats().Misses != 0 {
					t.Fatalf("a refused script ran %d cycles and %d L2 walks", s.K.Cycle(), s.L2.Ctrl.Stats().Misses)
				}
			}
		})
	}
	for _, tc := range []struct {
		name string
		key  metatag.Key
		ok   bool
	}{
		{"last key", metatag.Key{keys - 1, 0}, true},
		{"NumKeys", metatag.Key{keys, 0}, false},
		{"second word", metatag.Key{3, 1}, false},
	} {
		t.Run("port/"+tc.name, func(t *testing.T) {
			s := build(t)
			s.Ports[1].ReqQ.MustPush(CohReq{ID: 9, Op: OpLoad, Key: tc.key})
			for i := 0; i < 1_000 && s.Err() == nil && s.Ports[1].RespQ.Len() == 0; i++ {
				s.K.Step()
			}
			err := s.Err()
			if tc.ok != (err == nil) {
				t.Fatalf("port error %v, want success %t", err, tc.ok)
			}
			if !tc.ok {
				if want := "port 1 request 9"; !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name %q", err, want)
				}
				if st := s.L2.Ctrl.Stats(); st.Misses != 0 || s.Dir.Stats().Txns != 0 {
					t.Fatalf("a refused request reached the directory (%d txns, %d L2 walks)", s.Dir.Stats().Txns, st.Misses)
				}
				if s.Ports[1].CheckInvariants(s.K.Cycle()) != err {
					t.Fatal("the port's self-check does not report the latched error")
				}
			}
		})
	}
}

// TestCohOpenLoop: with four ops in flight per port, a port's second op
// on a key can join the first one's miss, and a merge that joined a
// read miss goes back to the directory for ownership once the read
// grant arrives: paths the closed-loop scripts never take. The run stays
// coherent under the checker, the directory's verdict agrees with the
// reference checker's after every cycle, and once the loop drains every key holds exactly
// the merges issued on it.
func TestCohOpenLoop(t *testing.T) {
	stop := TrackVerdicts()
	defer stop()
	c := newCohLoop(t, 4)
	h := check.Attach(c.s.K, check.Default())
	step := func() {
		c.issue()
		if err := h.Step(); err != nil {
			t.Fatal(err)
		}
		if err := h.Err(); err != nil {
			t.Fatal(err)
		}
	}
	storeBehindLoad := 0 // cycles with a live miss whose waiters are a load, then a merge
	for i := 0; i < 20_000; i++ {
		step()
		for _, l1 := range c.s.Ports {
			for j := range l1.mshrs.slots {
				m := &l1.mshrs.slots[j]
				if m.live && len(m.waiters) > 1 && !m.waiters[0].Op.isStore() && m.waiters[len(m.waiters)-1].Op.isStore() {
					storeBehindLoad++
				}
			}
		}
	}
	if storeBehindLoad == 0 {
		t.Fatal("no merge ever waited behind a load miss")
	}
	c.depth = 0
	for i := 0; c.inFlight != [4]int{} || !c.s.Idle(); i++ {
		if i == 100_000 {
			t.Fatal("the loop did not drain")
		}
		step()
	}
	load := make([]ScriptOp, cohLoopKeys)
	for k := range load {
		load[k] = Ld(uint64(k))
	}
	res, err := RunScripts(c.s, h, [][]ScriptOp{load}, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range res[0] {
		if v != c.merges[k] {
			t.Errorf("key %d reads %d after %d merges of 1", k, v, c.merges[k])
		}
	}
	RequireLockstep(t, stop(), 1)
}
