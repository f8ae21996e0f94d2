package runner

import (
	"runtime"
	"strings"
	"testing"

	"xcache/internal/check"
	"xcache/internal/ctrl"
	"xcache/internal/dsa"
)

// tinySpec is a real but very small simulation (Widx at scale 400 runs
// in a few milliseconds).
func tinySpec() Spec {
	return Spec{DSA: DSAWidx, Kind: dsa.KindXCache, Workload: "TPC-H-22", Scale: 400}
}

func badSpec() Spec {
	return Spec{DSA: "NoSuchDSA", Kind: dsa.KindXCache, Workload: "w", Scale: 1}
}

func TestNewDefaults(t *testing.T) {
	if w := New(0).Workers(); w != runtime.GOMAXPROCS(0) {
		t.Errorf("New(0) workers = %d, want GOMAXPROCS", w)
	}
	if w := New(3).Workers(); w != 3 {
		t.Errorf("New(3) workers = %d", w)
	}
}

func TestRunEmpty(t *testing.T) {
	res, err := New(4).Run(nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty Run: %v, %d results", err, len(res))
	}
}

func TestOneExecutesAndCaches(t *testing.T) {
	r := New(2)
	a, err := r.One(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles == 0 || !a.Checked {
		t.Fatalf("implausible result: %+v", a)
	}
	b, err := r.One(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cached result differs from first execution")
	}
	st := r.Stats()
	if st.Launched != 1 || st.Cached != 1 || st.Failed != 0 {
		t.Fatalf("stats %+v, want 1 launched / 1 cached / 0 failed", st)
	}
	if st.SimCycles != a.Cycles {
		t.Errorf("SimCycles %d, want %d", st.SimCycles, a.Cycles)
	}
	if len(st.Runs) != 1 || st.Runs[0].Key != tinySpec().Key() {
		t.Errorf("per-run stats %+v", st.Runs)
	}
}

func TestFailedEntriesEvictedNotMemoised(t *testing.T) {
	r := New(2)
	_, err1 := r.One(badSpec())
	_, err2 := r.One(badSpec())
	if err1 == nil || err2 == nil {
		t.Fatal("bad spec did not error")
	}
	if err1.Error() != err2.Error() {
		t.Fatalf("deterministic failure diverged: %v vs %v", err1, err2)
	}
	// The failure must have been evicted, so the second request
	// re-executes instead of being served the memoised error.
	st := r.Stats()
	if st.Launched != 2 || st.Cached != 0 || st.Failed != 2 || st.Evicted != 2 {
		t.Fatalf("stats %+v, want 2 launched / 0 cached / 2 failed / 2 evicted", st)
	}
	if n := r.cachedFailures(); n != 0 {
		t.Fatalf("%d failed entries survive in the cache", n)
	}
}

func TestRunErrorNamesSpec(t *testing.T) {
	_, err := New(2).Run([]Spec{tinySpec(), badSpec()})
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "NoSuchDSA") {
		t.Errorf("error %q does not carry the failing spec key", err)
	}
}

func TestExecuteRejectsUnknowns(t *testing.T) {
	cases := []Spec{
		{DSA: "NoSuchDSA", Kind: dsa.KindXCache, Workload: "w", Scale: 1},
		{DSA: DSAWidx, Kind: dsa.KindXCache, Workload: "no-such-query", Scale: 1},
		{DSA: DSASpArch, Kind: dsa.KindXCache, Workload: "p2p-08", Scale: 1},
		{DSA: DSAGraphPulse, Kind: dsa.KindXCache, Workload: "TPC-H-19", Scale: 1},
		{DSA: DSABTreeIdx, Kind: dsa.KindBaseline, Workload: "zipf", Scale: 1},
	}
	for _, s := range cases {
		if _, err := s.Execute(); err == nil {
			t.Errorf("%s: expected an error", s.Key())
		}
	}
}

func TestKeyDistinguishesEveryField(t *testing.T) {
	base := tinySpec()
	mutations := map[string]func(*Spec){
		"DSA":       func(s *Spec) { s.DSA = DSADASX },
		"Kind":      func(s *Spec) { s.Kind = dsa.KindAddr },
		"Workload":  func(s *Spec) { s.Workload = "TPC-H-19" },
		"Scale":     func(s *Spec) { s.Scale = 401 },
		"WorkScale": func(s *Spec) { s.WorkScale = 800 },
		"DivMul":    func(s *Spec) { s.DivMul = 2 },
		"Mode":      func(s *Spec) { s.Mode = 1 },
		"Exec":      func(s *Spec) { s.Exec = ctrl.ExecInterp },
		"Hardwired": func(s *Spec) { s.Hardwired = true },
		"Lookahead": func(s *Spec) { s.Lookahead = 16 },
		"NumActive": func(s *Spec) { s.NumActive = 8 },
		"NumExe":    func(s *Spec) { s.NumExe = 2 },
		"Check":     func(s *Spec) { s.Check = true },
		"DropResp":  func(s *Spec) { s.Faults.DropResp = 1e-3 },
		"FlipBit":   func(s *Spec) { s.Faults.FlipBit = 1e-4 },
		"Timeout":   func(s *Spec) { s.Faults.FillTimeout = 99 },
		"Seed":      func(s *Spec) { s.Seed = 9 },
	}
	for name, mutate := range mutations {
		m := base
		mutate(&m)
		if m.Key() == base.Key() {
			t.Errorf("mutating %s does not change the canonical key", name)
		}
		if m.Hash() == base.Hash() {
			t.Errorf("mutating %s does not change the content hash", name)
		}
	}
}

func TestCheckSpecAttachesHarness(t *testing.T) {
	s := tinySpec()
	s.Check = true
	s.Seed = 7
	s.Faults = check.FaultConfig{DropResp: 2e-2}
	r1, err := s.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Checked {
		t.Fatal("faulted run failed validation")
	}
	if r1.DroppedFills == 0 {
		t.Fatal("injector never fired: harness not attached")
	}
	r2, err := s.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("same faulted spec diverged:\n  %+v\n  %+v", r1, r2)
	}
}

func TestStatsSnapshotIsIsolated(t *testing.T) {
	r := New(1)
	if _, err := r.One(tinySpec()); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	st.Runs[0].Key = "clobbered"
	if r.Stats().Runs[0].Key != tinySpec().Key() {
		t.Error("Stats() exposes internal run slice")
	}
}

func TestStatsRendering(t *testing.T) {
	r := New(2)
	if _, err := r.One(tinySpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.One(tinySpec()); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	s := st.String()
	for _, want := range []string{"2 workers", "1 runs launched", "1 cache hits (50%)"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
	if d := st.Detail(); !strings.Contains(d, "TPC-H-22") {
		t.Errorf("detail %q missing run key", d)
	}
}

// TestModeReachesEveryDSA pins that Spec.Mode is a shared config
// override, not one DSA's option: in thread mode a walker holds its
// registers across DRAM fills, so every DSA's controller occupancy must
// differ from coroutine mode's (Fig 7's metric).
func TestModeReachesEveryDSA(t *testing.T) {
	for _, s := range []Spec{
		{DSA: DSAWidx, Kind: dsa.KindXCache, Workload: "TPC-H-19", Scale: 100},
		{DSA: DSADASX, Kind: dsa.KindXCache, Workload: "TPC-H-19", Scale: 100},
		{DSA: DSASpArch, Kind: dsa.KindXCache, Workload: "p2p-31", Scale: 100},
		{DSA: DSAGamma, Kind: dsa.KindXCache, Workload: "p2p-31", Scale: 100},
		{DSA: DSAGraphPulse, Kind: dsa.KindXCache, Workload: "p2p-08", Scale: 100},
		{DSA: DSABTreeIdx, Kind: dsa.KindXCache, Workload: "zipf", Scale: 100},
	} {
		thread := s
		thread.Mode = ctrl.ModeThread
		co, err := s.Execute()
		if err != nil {
			t.Fatalf("%s coroutine: %v", s.DSA, err)
		}
		th, err := thread.Execute()
		if err != nil {
			t.Fatalf("%s thread: %v", s.DSA, err)
		}
		if !co.Checked || !th.Checked {
			t.Errorf("%s: validation failed (coroutine %t, thread %t)", s.DSA, co.Checked, th.Checked)
		}
		if co.Occupancy == th.Occupancy {
			t.Errorf("%s: thread mode occupancy %d equals coroutine mode's: Spec.Mode never reached the controller",
				s.DSA, th.Occupancy)
		}
	}
}
