package runner

import (
	"errors"
	"os"
	"testing"
	"time"

	"xcache/internal/check"
	"xcache/internal/dsa"
)

// soakPoint is one cell of the fault matrix: an injector configuration
// plus the expected terminal state. expect is "ok" (the hardware
// retry/scrub machinery absorbs the faults), "fail" (the injector is
// guaranteed to wedge the machine), or "any" (outcome depends on the
// seed/DSA; the soak only asserts classification and pool health).
type soakPoint struct {
	name   string
	spec   Spec
	expect string
}

// soakMatrix returns the fault matrix over real simulations. The default
// set keeps plain `go test` fast; XCACHE_SOAK=full (the `make soak`
// tier) widens it to every injector class crossed with several seeds and
// three DSAs, plus queue clogs on both SpGEMM DSAs.
func soakMatrix(full bool) []soakPoint {
	mk := func(name, dsaName string, f check.FaultConfig, seed uint64, expect string) soakPoint {
		s := Spec{DSA: dsaName, Kind: dsa.KindXCache, Workload: "TPC-H-22", Scale: 400,
			Check: true, Faults: f, Seed: seed}
		switch dsaName {
		case DSABTreeIdx:
			s.Workload = "zipf"
		case DSASpArch, DSAGamma:
			s.Workload = "p2p-31"
		}
		return soakPoint{name: name, spec: s, expect: expect}
	}

	pts := []soakPoint{
		// Known outcomes on Widx, pinned:
		mk("clean-checked", DSAWidx, check.FaultConfig{}, 1, "ok"),
		mk("drop-light", DSAWidx, check.FaultConfig{DropResp: 2e-2}, 7, "ok"),
		// DropResp=1 drops every fill response: the controller's retry
		// budget exhausts and the run wedges, guaranteed.
		mk("drop-storm", DSAWidx, check.FaultConfig{DropResp: 1}, 1, "fail"),
		// With hardware fill-retry disabled, the first dropped fill is
		// never re-requested: a genuine watchdog-class wedge.
		mk("wedge-no-retry", DSAWidx, check.FaultConfig{DropResp: 0.3, FillTimeout: -1}, 1, "fail"),
		// A refused issue push must leave SpGEMM's A-stream words in the
		// stream: clogged queues slow these cells but never wedge them.
		mk("clog", DSASpArch, check.FaultConfig{ClogQueue: 0.05}, 1, "ok"),
		mk("clog-heavy", DSAGamma, check.FaultConfig{ClogQueue: 0.2}, 7, "ok"),
	}
	if !full {
		return pts
	}
	for _, d := range []string{DSASpArch, DSAGamma} {
		for _, seed := range []uint64{2, 3, 5, 11} {
			pts = append(pts,
				mk("clog", d, check.FaultConfig{ClogQueue: 0.05}, seed, "ok"),
				mk("clog-heavy", d, check.FaultConfig{ClogQueue: 0.2}, seed, "ok"),
			)
		}
	}
	for _, d := range []string{DSAWidx, DSADASX, DSABTreeIdx} {
		// At soak scale the B+-tree working set fits on chip: there are
		// few-to-no DRAM fills for the injector to drop, so the wedge
		// points are not guaranteed to wedge it.
		wedge := "fail"
		if d == DSABTreeIdx {
			wedge = "any"
		}
		for _, seed := range []uint64{2, 3, 5, 11} {
			pts = append(pts,
				mk("clean-checked", d, check.FaultConfig{}, seed, "ok"),
				mk("drop-light", d, check.FaultConfig{DropResp: 2e-2}, seed, "any"),
				mk("drop-heavy", d, check.FaultConfig{DropResp: 0.2}, seed, "any"),
				mk("delay", d, check.FaultConfig{DelayResp: 0.1, DelayMax: 64}, seed, "any"),
				mk("clog", d, check.FaultConfig{ClogQueue: 0.05}, seed, "any"),
				mk("flip", d, check.FaultConfig{FlipBit: 1e-4}, seed, "any"),
				mk("drop-storm", d, check.FaultConfig{DropResp: 1}, seed, wedge),
				mk("wedge-no-retry", d, check.FaultConfig{DropResp: 0.3, FillTimeout: -1}, seed, wedge),
			)
		}
	}
	return pts
}

// TestFaultMatrixSoak drives real simulations through the full
// resilience stack — fault injection, watchdog, memoisation, partial
// results — and asserts the acceptance properties: every failure is a
// classified *RunError, the pool drains without deadlock, each spec
// executes once, and a replay fails every failing spec with the same
// error text, stall report included. The replay is why the runner
// executes each spec once. `make soak` runs the widened matrix under
// -race via XCACHE_SOAK=full.
func TestFaultMatrixSoak(t *testing.T) {
	full := os.Getenv("XCACHE_SOAK") == "full"
	pts := soakMatrix(full)
	specs := make([]Spec, len(pts))
	for i, p := range pts {
		specs[i] = p.spec
	}

	r := New(4)

	// The pool must drain on its own; a generous watchdog turns a wedged
	// pool into a test failure instead of a hung CI job.
	ch := make(chan []Outcome, 1)
	go func() { ch <- r.RunAll(specs) }()
	var outs []Outcome
	select {
	case outs = <-ch:
	case <-time.After(5 * time.Minute):
		t.Fatal("soak pool deadlocked: RunAll did not drain within 5 minutes")
	}

	for i, o := range outs {
		p := pts[i]
		key := p.spec.Key()
		if o.Err == nil {
			if !o.Res.Checked {
				t.Errorf("%s: completed but failed validation: %+v", key, o.Res)
			}
			if p.expect == "fail" {
				t.Errorf("%s (%s): expected a wedge, run survived", key, p.name)
			}
			continue
		}
		if p.expect == "ok" {
			t.Errorf("%s (%s): expected recovery, got %v", key, p.name, o.Err)
		}
		// Every failure must be fully classified: a known taxonomy kind
		// and (for supervised aborts) a stall report naming the wedge.
		// Outcome.Err is typed *RunError; also pin that the underlying
		// check.Failure stays unwrappable.
		re := o.Err
		var cf *check.Failure
		if re.Report != nil && !errors.As(error(re), &cf) {
			t.Errorf("%s: check.Failure cause lost through the taxonomy", key)
		}
		if re.Kind == FailUnknown {
			t.Errorf("%s: unclassified failure: %v", key, re)
		}
		switch re.Kind {
		case FailStall, FailInvariant, FailOverflow, FailBudget:
			if re.Report == nil {
				t.Errorf("%s: supervised abort without a stall report", key)
			}
		}
	}

	if n := r.Stats().Launched; n != len(specs) {
		t.Errorf("soak launched %d executions for %d distinct specs, want one each", n, len(specs))
	}

	// Determinism under resilience: replaying the whole matrix on a fresh
	// runner (different worker count, different completion order)
	// reproduces every outcome — successes bit-identical, failures with
	// the same error text, stall report included.
	outs2 := New(2).RunAll(specs)
	for i := range outs {
		a, b := outs[i], outs2[i]
		key := pts[i].spec.Key()
		switch {
		case a.Err == nil && b.Err == nil:
			if a.Res != b.Res {
				t.Errorf("%s: replay diverged:\n  %+v\n  %+v", key, a.Res, b.Res)
			}
		case a.Err != nil && b.Err != nil:
			if a.Err.Error() != b.Err.Error() {
				t.Errorf("%s: replay failure diverged:\n%v\n--- vs ---\n%v", key, a.Err, b.Err)
			}
		default:
			t.Errorf("%s: replay flipped success/failure: %v vs %v", key, a.Err, b.Err)
		}
	}
}
