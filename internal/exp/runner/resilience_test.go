package runner

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"xcache/internal/check"
	"xcache/internal/dsa"
)

// fakeResult fabricates a plausible successful result for seam-scripted
// executions, keyed so different specs stay distinguishable.
func fakeResult(s Spec, cycles uint64) dsa.Result {
	return dsa.Result{DSA: s.DSA, Workload: s.Workload, Kind: s.Kind, Cycles: cycles, Checked: true}
}

// faultedSpec is a spec whose injector is armed.
func faultedSpec() Spec {
	s := tinySpec()
	s.Check = true
	s.Seed = 1
	s.Faults = check.FaultConfig{DropResp: 2e-2}
	return s
}

func stallFailure() error {
	rep := &check.StallReport{Kind: check.FailStall, Cycle: 1234, Reason: "no forward progress (test)"}
	return fmt.Errorf("scripted wedge: %w", rep.Failure())
}

func TestClassifyTaxonomy(t *testing.T) {
	faulted, clean := faultedSpec(), tinySpec()
	rep := func(k check.FailureKind) error {
		r := &check.StallReport{Kind: k, Cycle: 7}
		return fmt.Errorf("wrapped: %w", r.Failure())
	}
	cases := []struct {
		name string
		spec Spec
		err  error
		kind FailKind
	}{
		{"faulted stall", faulted, rep(check.FailStall), FailStall},
		{"faulted budget", faulted, rep(check.FailBudget), FailBudget},
		{"faulted invariant", faulted, rep(check.FailInvariant), FailInvariant},
		{"faulted overflow", faulted, rep(check.FailOverflow), FailOverflow},
		{"clean stall", clean, rep(check.FailStall), FailStall},
		{"clean invariant", clean, rep(check.FailInvariant), FailInvariant},
		{"clean budget", clean, rep(check.FailBudget), FailBudget},
		{"panic", clean, &panicError{val: "boom"}, FailPanic},
		{"malformed spec", clean, errors.New("unknown DSA"), FailSpec},
	}
	for _, c := range cases {
		re := classify(c.spec, c.err)
		if re.Kind != c.kind {
			t.Errorf("%s: classified %s, want %s", c.name, re.Kind, c.kind)
		}
		if re.Key != c.spec.Key() {
			t.Errorf("%s: key not threaded: %+v", c.name, re)
		}
		if !errors.Is(re, c.err) && re.Err != c.err {
			t.Errorf("%s: cause not unwrappable", c.name)
		}
	}
	// Supervised aborts carry their report through to the RunError.
	re := classify(faulted, rep(check.FailStall))
	if re.Report == nil || re.Report.Cycle != 7 {
		t.Errorf("stall report not attached: %+v", re.Report)
	}
}

// TestPermanentFailureNotRetried: a fault-injected spec that wedges
// executes exactly once. Its fault rolls are a pure function of the
// spec, so a second execution could only fail the same way.
func TestPermanentFailureNotRetried(t *testing.T) {
	r := New(1)
	calls := 0
	inner := r.exec
	r.exec = func(s Spec) (dsa.Result, error) {
		calls++
		return inner(s)
	}
	s := faultedSpec()
	s.Faults.DropResp = 1 // every fill dropped: the fill-retry budget runs out
	_, err := r.One(s)
	var re *RunError
	if !errors.As(err, &re) || re.Report == nil {
		t.Fatalf("want a supervised abort, got %v", err)
	}
	st := r.Stats()
	if calls != 1 || st.Launched != 1 || st.Failed != 1 || len(st.Runs) != 1 {
		t.Fatalf("failing spec executed %d time(s), stats %+v; want exactly 1", calls, st)
	}
}

func TestPanicIsolatedToSpec(t *testing.T) {
	r := New(2)
	bomb := tinySpec()
	bomb.Workload = "TPC-H-19" // distinct key from the good spec
	r.exec = func(s Spec) (dsa.Result, error) {
		if s.Workload == bomb.Workload {
			panic("scripted kernel bug")
		}
		return fakeResult(s, 42), nil
	}
	outs := r.RunAll([]Spec{tinySpec(), bomb, tinySpec()})
	if outs[0].Err != nil || outs[2].Err != nil {
		t.Fatalf("panic leaked into healthy specs: %+v", outs)
	}
	if outs[1].Err == nil || outs[1].Err.Kind != FailPanic {
		t.Fatalf("panic outcome %+v, want FailPanic", outs[1].Err)
	}
	if !errors.Is(outs[1].Err, outs[1].Err.Err) {
		t.Fatal("panic cause not unwrappable")
	}
	if msg := outs[1].Err.Error(); msg == "" || !containsAll(msg, "panic", "scripted kernel bug") {
		t.Errorf("panic error lost its payload: %q", msg)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TestStatsConsistencyUnderFailure pins the counter contract documented
// on Stats: every resolve request increments exactly one of Launched or
// Cached; each launch executes once, so Runs has one record per launch;
// a repeated failing spec is served from the memo table.
func TestStatsConsistencyUnderFailure(t *testing.T) {
	r := New(4)
	var mu sync.Mutex
	executions := 0
	r.exec = func(s Spec) (dsa.Result, error) {
		mu.Lock()
		executions++
		mu.Unlock()
		switch s.Workload {
		case "TPC-H-19": // malformed-spec style failure
			return dsa.Result{}, errors.New("scripted malformed-spec failure")
		case "wedge": // injected-fault wedge
			return dsa.Result{}, stallFailure()
		default:
			return fakeResult(s, 10), nil
		}
	}

	spec := func(workload string, faulted bool) Spec {
		s := tinySpec()
		s.Workload = workload
		if faulted {
			s.Check = true
			s.Faults = check.FaultConfig{DropResp: 2e-2}
		}
		return s
	}
	specs := []Spec{
		spec("TPC-H-22", false), // success
		spec("TPC-H-19", false), // malformed-spec failure
		spec("TPC-H-20", true),  // faulted success
		spec("wedge", true),     // faulted failure
		spec("TPC-H-22", false), // duplicate → cache hit or shared entry
		spec("wedge", true),     // duplicate failure → memoised, not re-executed
	}

	outs := r.RunAll(specs)
	st := r.Stats()

	requests := len(specs)
	if got := st.Launched + st.Cached; got != requests {
		t.Fatalf("Launched+Cached = %d, want %d (every request increments exactly one)", got, requests)
	}
	if st.Failed != 2 { // malformed spec + wedge
		t.Fatalf("Failed=%d, want 2", st.Failed)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(st.Runs) != executions {
		t.Fatalf("%d Runs records, want one per execution (%d)", len(st.Runs), executions)
	}
	if st.Launched != executions {
		t.Fatalf("Launched=%d, want executions=%d (each launch executes once)", st.Launched, executions)
	}
	if outs[0].Err != nil || outs[2].Err != nil || outs[4].Err != nil {
		t.Fatalf("healthy cells failed: %+v", outs)
	}
	if outs[1].Err == nil || outs[3].Err == nil {
		t.Fatal("scripted failures did not surface")
	}
	if st.Launched != 4 || outs[5].Err == nil || outs[5].Err.Error() != outs[3].Err.Error() {
		t.Fatalf("duplicate failing spec: Launched=%d, outcome %v; want 4 launches and the memoised %v",
			st.Launched, outs[5].Err, outs[3].Err)
	}
}
