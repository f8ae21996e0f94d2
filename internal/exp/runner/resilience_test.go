package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
	bomb.Workload = "TPC-H-19" // distinct hash from the good spec
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
// on Stats: every resolve request increments exactly one of Launched,
// Cached or Resumed; each launch executes once, so Runs has one record
// per launch; a repeated failing spec is served from the memo table.
func TestStatsConsistencyUnderFailure(t *testing.T) {
	dir := t.TempDir()
	mk := func() (*Runner, *int, *sync.Mutex) {
		r, err := NewFrom(Config{Workers: 4, CheckpointDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		total := 0
		r.exec = func(s Spec) (dsa.Result, error) {
			mu.Lock()
			total++
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
		return r, &total, &mu
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

	r, total, mu := mk()
	outs := r.RunAll(specs)
	st := r.Stats()

	requests := len(specs)
	if got := st.Launched + st.Cached + st.Resumed; got != requests {
		t.Fatalf("Launched+Cached+Resumed = %d, want %d (every request increments exactly one)", got, requests)
	}
	if st.Failed != 2 { // malformed spec + wedge
		t.Fatalf("Failed=%d, want 2", st.Failed)
	}
	mu.Lock()
	executions := *total
	mu.Unlock()
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
	if st.Checkpointed != 2 { // the two distinct successes; failures never journal
		t.Fatalf("Checkpointed=%d, want 2", st.Checkpointed)
	}

	// Second runner over the same journal, as a re-invocation with the
	// same -checkpoint directory: successes resume, failures (never
	// journaled) re-execute — and the counters stay consistent.
	r2, _, _ := mk()
	r2.RunAll(specs)
	st2 := r2.Stats()
	if got := st2.Launched + st2.Cached + st2.Resumed; got != requests {
		t.Fatalf("resumed run: Launched+Cached+Resumed = %d, want %d", got, requests)
	}
	if st2.Resumed != 2 {
		t.Fatalf("resumed run: Resumed=%d, want 2 (both journaled successes)", st2.Resumed)
	}
	if st2.Launched != 2 || st2.Failed != 2 {
		t.Fatalf("resumed run: Launched=%d Failed=%d, want 2/2 (exactly the failed cells re-execute)", st2.Launched, st2.Failed)
	}
	if st2.Checkpointed != 0 {
		t.Fatalf("resumed run re-journaled resumed results: %+v", st2)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	ck, err := OpenCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := tinySpec()
	want := fakeResult(s, 777)
	if _, ok := ck.load(s); ok {
		t.Fatal("load hit before save")
	}
	if err := ck.save(s, want); err != nil {
		t.Fatal(err)
	}
	got, ok := ck.load(s)
	if !ok || got != want {
		t.Fatalf("round trip: ok=%v got=%+v", ok, got)
	}
	// A different spec must not see this record.
	other := s
	other.Scale = 401
	if _, ok := ck.load(other); ok {
		t.Fatal("different spec resolved another spec's checkpoint")
	}
	// nil receiver is a miss + no-op, so the runner can call unconditionally.
	var nilCk *Checkpoint
	if _, ok := nilCk.load(s); ok {
		t.Fatal("nil checkpoint returned a hit")
	}
	if err := nilCk.save(s, want); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointCorruptAndMismatchedFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	ck, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := tinySpec()

	// Corrupt JSON (a torn write that somehow reached the final name).
	if err := os.WriteFile(ck.path(s.Hash()), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := ck.load(s); ok {
		t.Fatal("corrupt checkpoint file trusted")
	}

	// Valid JSON but for the wrong spec (hand-moved or stale-format file).
	b, _ := json.Marshal(ckptFile{Key: "someone-else", Result: fakeResult(s, 1)})
	if err := os.WriteFile(ck.path(s.Hash()), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := ck.load(s); ok {
		t.Fatal("key-mismatched checkpoint file trusted")
	}

	// The runner degrades both cases to re-execution, not an abort.
	r, err := NewFrom(Config{Workers: 1, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	r.exec = func(s Spec) (dsa.Result, error) { return fakeResult(s, 9), nil }
	if _, err := r.One(s); err != nil {
		t.Fatalf("corrupt checkpoint aborted the run: %v", err)
	}
	st := r.Stats()
	if st.Launched != 1 || st.Resumed != 0 {
		t.Fatalf("stats %+v, want relaunch (1 launched / 0 resumed)", st)
	}
	// The re-executed result overwrote the corrupt record atomically.
	if got, ok := ck.load(s); !ok || got.Cycles != 9 {
		t.Fatalf("journal not repaired: ok=%v got=%+v", ok, got)
	}
}

// TestInterruptedSweepResumesByteIdentical is the acceptance criterion:
// a sweep killed mid-run and resumed from the same -checkpoint directory
// produces byte-identical merged output to an uninterrupted clean serial
// run. The kill is modelled by a first invocation that completes only a
// prefix of the specs.
func TestInterruptedSweepResumesByteIdentical(t *testing.T) {
	specs := []Spec{}
	for _, q := range []string{"TPC-H-19", "TPC-H-20", "TPC-H-22"} {
		for _, k := range []dsa.Kind{dsa.KindXCache, dsa.KindAddr} {
			specs = append(specs, Spec{DSA: DSAWidx, Kind: k, Workload: q, Scale: 400})
		}
	}

	// Reference: uninterrupted clean serial run, no resilience machinery.
	clean, err := New(1).Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(clean)
	if err != nil {
		t.Fatal(err)
	}

	// First invocation: serial, checkpointed, killed after two completions.
	dir := t.TempDir()
	r1, err := NewFrom(Config{Workers: 1, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Run(specs[:2]); err != nil {
		t.Fatal(err)
	}
	if got := r1.Stats().Checkpointed; got != 2 {
		t.Fatalf("first invocation journaled %d results, want 2", got)
	}

	// Second invocation: same checkpoint dir, fresh process (new Runner),
	// this time running to completion — and in parallel, to show resume
	// and scheduling don't leak into the merged output.
	r2, err := NewFrom(Config{Workers: 4, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := r2.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatal("resumed sweep output is not byte-identical to the clean serial run")
	}
	st := r2.Stats()
	if st.Resumed != 2 || st.Launched != len(specs)-2 {
		t.Fatalf("resume stats %+v, want 2 resumed / %d launched", st, len(specs)-2)
	}

	// Checkpoint files themselves are the journal: one per completed spec.
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(specs) {
		t.Fatalf("%d journal files, want %d", len(files), len(specs))
	}
}
