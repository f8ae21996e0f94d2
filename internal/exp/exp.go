// Package exp is the evaluation harness: one entry point per table and
// figure of the paper's evaluation (§8), each regenerating the same rows
// or series the paper reports. Both cmd/xcache-bench and the repository's
// benchmark suite drive these functions.
//
// Every experiment takes a scale divisor: scale 1 runs the published
// workload sizes (Table 3 geometries, 100 GB-regime hash indices,
// p2p-Gnutella sparse inputs); larger scales divide the workload and
// cache capacities together so the cache-pressure regime — the thing the
// results depend on — is preserved while unit tests stay fast.
package exp

import (
	"fmt"
	"math"

	"xcache/internal/dsa"
	"xcache/internal/exp/runner"
	"xcache/internal/hashidx"
	"xcache/internal/stats"
)

// Out is one regenerated table/figure.
type Out struct {
	ID      string
	Table   *stats.Table
	Metrics map[string]float64
	Notes   []string
}

// Sweep holds the full DSA × workload × storage-idiom result matrix that
// Figs 14/15/16 are cut from. Failed is empty on a clean strict run;
// under RunSweepPartial it carries every cell that could not be
// simulated, so the figures annotate failures instead of aborting.
type Sweep struct {
	Scale   int
	Results []dsa.Result
	Failed  []FailedCell `json:",omitempty"`
}

// FailedCell is one sweep point that produced no result: the cell's
// identity plus the runner's taxonomy kind (Fail from runner.RunError,
// or "validation" when the simulation completed but did not match its
// reference model).
type FailedCell struct {
	DSA      string
	Workload string
	Kind     dsa.Kind
	Fail     string // taxonomy kind: stall, invariant, panic, spec, validation, ...
	Err      string
}

// FailureNotes renders one line per failed cell, for Out.Notes and the
// xcache-bench -partial summary.
func (s *Sweep) FailureNotes() []string {
	var notes []string
	for _, f := range s.Failed {
		notes = append(notes, fmt.Sprintf("FAILED %s/%s[%s]: %s", f.DSA, f.Workload, f.Kind, f.Fail))
	}
	return notes
}

// Get returns the result for (dsaName, workload, kind), or false.
func (s *Sweep) Get(dsaName, workload string, kind dsa.Kind) (dsa.Result, bool) {
	for _, r := range s.Results {
		if r.DSA == dsaName && r.Workload == workload && r.Kind == kind {
			return r, true
		}
	}
	return dsa.Result{}, false
}

// Pairs returns the (xcache, other) result pairs for every workload that
// has both kinds.
func (s *Sweep) Pairs(other dsa.Kind) (xs, os []dsa.Result) {
	for _, r := range s.Results {
		if r.Kind != dsa.KindXCache {
			continue
		}
		o, ok := s.Get(r.DSA, r.Workload, other)
		if !ok {
			continue
		}
		xs = append(xs, r)
		os = append(os, o)
	}
	return xs, os
}

// sweepKinds is the serial-path kind order within each (DSA, workload).
var sweepKinds = []dsa.Kind{dsa.KindXCache, dsa.KindAddr, dsa.KindBaseline}

// SweepSpecs returns the full Fig 14 result matrix as independent run
// specs, in the canonical (historical serial-path) order.
func SweepSpecs(scale int) []runner.Spec {
	var specs []runner.Spec

	// Widx and DASX over the three TPC-H query profiles.
	for _, p := range hashidx.TPCH() {
		for _, d := range []string{runner.DSAWidx, runner.DSADASX} {
			for _, k := range sweepKinds {
				specs = append(specs, runner.Spec{DSA: d, Kind: k, Workload: p.Name, Scale: scale})
			}
		}
	}

	// SpArch and Gamma on p2p-Gnutella31.
	for _, d := range []string{runner.DSASpArch, runner.DSAGamma} {
		for _, k := range sweepKinds {
			specs = append(specs, runner.Spec{DSA: d, Kind: k, Workload: "p2p-31", Scale: scale})
		}
	}

	// GraphPulse on p2p-Gnutella08 and (further scaled — the published
	// input is 916K vertices / 5.1M edges) web-Google.
	for _, w := range []runner.Spec{
		{Workload: "p2p-08", Scale: scale},
		{Workload: "web-Google", Scale: scale, WorkScale: scale * 4},
	} {
		for _, k := range sweepKinds {
			s := w
			s.DSA = runner.DSAGraphPulse
			s.Kind = k
			specs = append(specs, s)
		}
	}
	return specs
}

// RunSweep executes every (DSA, workload, idiom) combination of Fig 14
// on the given runner. Results are ordered and validated identically to
// the historical serial path regardless of the runner's worker count.
// It is RunSweepPartial under a strict policy: the first failed cell in
// spec order is the error.
func RunSweep(r *runner.Runner, scale int) (*Sweep, error) {
	return strict(RunSweepPartial(r, scale))
}

// strict applies RunSweep's policy to a folded sweep and its error.
func strict(sw *Sweep, err error) (*Sweep, error) {
	if err == nil && len(sw.Failed) > 0 {
		f := sw.Failed[0]
		err = fmt.Errorf("exp: sweep cell %s/%s[%s] failed: %s", f.DSA, f.Workload, f.Kind, f.Err)
	}
	if err != nil {
		return nil, err
	}
	return sw, nil
}

// RunSweepPartial is the graceful-degradation sweep: every cell runs to
// a terminal outcome and failures — classified runner errors or
// functional-validation mismatches — are recorded in Sweep.Failed
// instead of aborting the batch. Successful cells keep the strict
// sweep's order and values (a clean partial sweep is byte-identical to
// RunSweep's). It errors only when not a single cell survived.
func RunSweepPartial(r *runner.Runner, scale int) (*Sweep, error) {
	specs := SweepSpecs(scale)
	return foldSweep(scale, specs, r.RunAll(specs))
}

// foldSweep files outs[i], the outcome of specs[i], into a Sweep: a
// result that matched its reference model joins Results, and a runner
// failure or a validation mismatch joins Failed, both in spec order.
func foldSweep(scale int, specs []runner.Spec, outs []runner.Outcome) (*Sweep, error) {
	sw := &Sweep{Scale: scale}
	for i, o := range outs {
		s := specs[i]
		switch {
		case o.Err != nil:
			sw.Failed = append(sw.Failed, FailedCell{
				DSA: s.DSA, Workload: s.Workload, Kind: s.Kind,
				Fail: o.Err.Kind.String(), Err: o.Err.Error(),
			})
		case !o.Res.Checked:
			sw.Failed = append(sw.Failed, FailedCell{
				DSA: s.DSA, Workload: s.Workload, Kind: s.Kind,
				Fail: "validation",
				Err:  "functional output did not match the reference model",
			})
		default:
			sw.Results = append(sw.Results, o.Res)
		}
	}
	if len(sw.Results) == 0 && len(sw.Failed) > 0 {
		f := sw.Failed[0]
		return nil, fmt.Errorf("exp: all %d sweep cells failed (first: %s/%s[%s]: %s)",
			len(sw.Failed), f.DSA, f.Workload, f.Kind, f.Fail)
	}
	return sw, nil
}

func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}
