package runner

import (
	"reflect"
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

// TestFailedEntriesMemoised: a failure is a pure function of its spec,
// so a failing spec requested twice executes once and the second request
// is served the memoised error.
func TestFailedEntriesMemoised(t *testing.T) {
	r := New(2)
	_, err1 := r.One(badSpec())
	_, err2 := r.One(badSpec())
	if err1 == nil || err2 == nil {
		t.Fatal("bad spec did not error")
	}
	if err1.Error() != err2.Error() {
		t.Fatalf("memoised failure diverged: %v vs %v", err1, err2)
	}
	st := r.Stats()
	if st.Launched != 1 || st.Cached != 1 || st.Failed != 1 || len(st.Runs) != 1 {
		t.Fatalf("stats %+v, want 1 launched / 1 cached / 1 failed", st)
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
		// Only xcache-serve applies channel fault episodes.
		{DSA: DSAWidx, Kind: dsa.KindXCache, Workload: "TPC-H-22", Scale: 400,
			Faults: check.FaultConfig{Channels: []check.ChannelFault{{Mode: check.ChanOutage, Cycles: 100}}}},
	}
	for _, s := range cases {
		if _, err := s.Execute(); err == nil {
			t.Errorf("%s: expected an error", s.Key())
		}
	}
}

// TestKeyDistinguishesEveryField mutates every field of Spec and of its
// check.FaultConfig, and requires each mutation to change the key. A
// field the table does not name fails the test, so a field added later
// cannot slip out of Key() unnoticed.
func TestKeyDistinguishesEveryField(t *testing.T) {
	base := tinySpec()
	// Each mutated rate agrees with its base to 6 significant digits, so
	// a key that rounds rates would alias them.
	base.Faults = check.FaultConfig{DropResp: 0.1234567, DelayResp: 0.2, ClogQueue: 0.3, FlipBit: 0.4}
	mutations := map[string]func(*Spec){
		"DSA":                func(s *Spec) { s.DSA = DSADASX },
		"Kind":               func(s *Spec) { s.Kind = dsa.KindAddr },
		"Workload":           func(s *Spec) { s.Workload = "TPC-H-19" },
		"Scale":              func(s *Spec) { s.Scale = 401 },
		"WorkScale":          func(s *Spec) { s.WorkScale = 800 },
		"DivMul":             func(s *Spec) { s.DivMul = 2 },
		"Mode":               func(s *Spec) { s.Mode = 1 },
		"Exec":               func(s *Spec) { s.Exec = ctrl.ExecInterp },
		"Hardwired":          func(s *Spec) { s.Hardwired = true },
		"Lookahead":          func(s *Spec) { s.Lookahead = 16 },
		"NumActive":          func(s *Spec) { s.NumActive = 8 },
		"NumExe":             func(s *Spec) { s.NumExe = 2 },
		"Check":              func(s *Spec) { s.Check = true },
		"Faults.DropResp":    func(s *Spec) { s.Faults.DropResp = 0.12345671 },
		"Faults.DelayResp":   func(s *Spec) { s.Faults.DelayResp = 0.2000001 },
		"Faults.DelayMax":    func(s *Spec) { s.Faults.DelayMax = 64 },
		"Faults.ClogQueue":   func(s *Spec) { s.Faults.ClogQueue = 0.3000001 },
		"Faults.FlipBit":     func(s *Spec) { s.Faults.FlipBit = 0.4000001 },
		"Faults.FillTimeout": func(s *Spec) { s.Faults.FillTimeout = 99 },
		"Faults.Channels": func(s *Spec) {
			s.Faults.Channels = []check.ChannelFault{{Channel: 1, Mode: check.ChanBurst, Start: 500, Cycles: 100}}
		},
		"Seed": func(s *Spec) { s.Seed = 9 },
	}
	fields := map[string]bool{}
	spec := reflect.TypeOf(Spec{})
	for i := 0; i < spec.NumField(); i++ {
		f := spec.Field(i)
		if f.Type != reflect.TypeOf(check.FaultConfig{}) {
			fields[f.Name] = true
			continue
		}
		for j := 0; j < f.Type.NumField(); j++ {
			fields[f.Name+"."+f.Type.Field(j).Name] = true
		}
	}
	for name := range fields {
		if mutations[name] == nil {
			t.Errorf("field %s has no mutation in this table", name)
		}
	}
	for name := range mutations {
		if !fields[name] {
			t.Errorf("table mutates %s, which is no field of Spec", name)
		}
	}
	for name, mutate := range mutations {
		m := base
		mutate(&m)
		if m.Key() == base.Key() {
			t.Errorf("mutating %s does not change the canonical key", name)
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
