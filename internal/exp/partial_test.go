package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"xcache/internal/dsa"
	"xcache/internal/exp/runner"
)

// TestPartialSweepCleanMatchesStrict pins the graceful-degradation
// contract's happy path: when nothing fails, RunSweepPartial is
// byte-identical to the strict RunSweep (same results, empty Failed, no
// annotation rows or notes), so the golden snapshots cover both paths.
func TestPartialSweepCleanMatchesStrict(t *testing.T) {
	strict := sweep(t)
	partial, err := RunSweepPartial(testRunner, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(partial.Failed) != 0 {
		t.Fatalf("clean partial sweep recorded failures: %+v", partial.Failed)
	}
	a, err := json.Marshal(strict)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(partial)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("clean RunSweepPartial is not byte-identical to RunSweep")
	}
	if notes := partial.FailureNotes(); len(notes) != 0 {
		t.Fatalf("clean sweep produced failure notes: %v", notes)
	}
}

// TestPartialSweepAllCellsFailed: when not a single cell survives, the
// partial sweep errors instead of returning an empty, plausible-looking
// result set. Runner failures and validation mismatches both count.
func TestPartialSweepAllCellsFailed(t *testing.T) {
	specs := SweepSpecs(testScale)
	outs := make([]runner.Outcome, len(specs))
	for i, s := range specs {
		if i%2 == 0 {
			outs[i].Err = &runner.RunError{Key: s.Key(), Kind: runner.FailStall, Err: errors.New("scripted wedge")}
		} else {
			outs[i].Res = dsa.Result{DSA: s.DSA, Workload: s.Workload, Kind: s.Kind, Checked: false}
		}
	}
	_, err := foldSweep(testScale, specs, outs)
	if err == nil {
		t.Fatal("fully failed sweep returned no error")
	}
	for _, want := range []string{fmt.Sprintf("all %d sweep cells failed", len(specs)), specs[0].DSA, "stall"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
}

// degradedSweep clones the clean test sweep and knocks one XCache cell
// out, the way RunSweepPartial would under a wedge.
func degradedSweep(t *testing.T) (*Sweep, dsa.Result) {
	t.Helper()
	clean := sweep(t)
	sw := &Sweep{Scale: clean.Scale}
	var dropped dsa.Result
	for _, r := range clean.Results {
		if dropped.DSA == "" && r.Kind == dsa.KindXCache {
			dropped = r
			continue
		}
		sw.Results = append(sw.Results, r)
	}
	sw.Failed = append(sw.Failed, FailedCell{
		DSA: dropped.DSA, Workload: dropped.Workload, Kind: dropped.Kind,
		Fail: "stall", Err: "scripted wedge",
	})
	return sw, dropped
}

// TestFiguresAnnotateFailedCells: a degraded sweep must be visibly
// degraded — the failed cell appears as a FAILED row in Fig 14 and as a
// failure note on every sweep-derived figure — and every figure must
// still render and produce JSON-marshalable metrics.
func TestFiguresAnnotateFailedCells(t *testing.T) {
	sw, dropped := degradedSweep(t)

	f14 := Fig14(sw)
	if !strings.Contains(f14.Table.String(), "FAILED: stall") {
		t.Error("Fig 14 table does not annotate the failed cell")
	}
	for _, out := range []*Out{Fig4(sw), f14, Fig15(sw), Fig16(sw)} {
		found := false
		for _, n := range out.Notes {
			if strings.Contains(n, "FAILED") && strings.Contains(n, dropped.DSA) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: failure note missing from %v", out.ID, out.Notes)
		}
		if _, err := json.Marshal(out.Metrics); err != nil {
			t.Errorf("%s: metrics not marshalable: %v", out.ID, err)
		}
	}
}

// TestFiguresSurviveFullyDegradedSweep: even a sweep where every cell
// failed must render (empty tables, zeroed metrics) rather than panic or
// emit NaNs — xcache-bench -partial leans on this.
func TestFiguresSurviveFullyDegradedSweep(t *testing.T) {
	sw := &Sweep{Scale: testScale}
	for _, r := range sweep(t).Results {
		sw.Failed = append(sw.Failed, FailedCell{
			DSA: r.DSA, Workload: r.Workload, Kind: r.Kind,
			Fail: "budget", Err: "scripted",
		})
	}
	for _, out := range []*Out{Fig4(sw), Fig14(sw), Fig15(sw), Fig16(sw)} {
		b, err := json.Marshal(out.Metrics)
		if err != nil {
			t.Errorf("%s: metrics not marshalable under total degradation: %v", out.ID, err)
		}
		if strings.Contains(string(b), "NaN") {
			t.Errorf("%s: NaN leaked into metrics: %s", out.ID, b)
		}
		if len(out.Notes) < len(sw.Failed) {
			t.Errorf("%s: only %d notes for %d failed cells", out.ID, len(out.Notes), len(sw.Failed))
		}
	}
}
