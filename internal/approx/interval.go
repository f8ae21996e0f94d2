package approx

import (
	"fmt"
	"math"

	"xcache/internal/dsa"
	"xcache/internal/dsa/widx"
	"xcache/internal/exp/runner"
	"xcache/internal/hashidx"
)

// IntervalPlan configures Engine B: K sampled execution windows, each a
// WindowFrac slice of the probe trace preceded by a WarmupFrac warm-up
// slice whose statistics are subtracted out (run twice, warm-up-only and
// warm-up+window, and differenced — the simulator has no state snapshot).
type IntervalPlan struct {
	Windows    int
	WindowFrac float64 // fraction of the probe trace per measured window
	WarmupFrac float64 // fraction of the probe trace warmed before each window
}

// window is one laid-out sample: warm probes of warm-up starting at
// start, then length measured probes.
type window struct {
	start, warm, length int
}

// layout validates the plan against a run of total probes and returns the
// stratified window placement: window starts spread evenly over the trace
// so phase behaviour at either end is represented.
func (p IntervalPlan) layout(total int) ([]window, error) {
	if total <= 0 {
		return nil, fmt.Errorf("%w: empty workload (%d probes)", ErrBadPlan, total)
	}
	if p.Windows <= 0 {
		return nil, fmt.Errorf("%w: zero sample windows", ErrBadPlan)
	}
	if !(p.WindowFrac > 0) || p.WindowFrac > 1 || math.IsInf(p.WindowFrac, 0) {
		return nil, fmt.Errorf("%w: window fraction %v outside (0, 1]", ErrBadPlan, p.WindowFrac)
	}
	if !(p.WarmupFrac >= 0) || p.WarmupFrac >= 1 || math.IsInf(p.WarmupFrac, 0) {
		return nil, fmt.Errorf("%w: warm-up fraction %v outside [0, 1)", ErrBadPlan, p.WarmupFrac)
	}
	warm := int(p.WarmupFrac * float64(total))
	length := int(p.WindowFrac * float64(total))
	if length < 1 {
		length = 1
	}
	span := warm + length
	if span > total {
		return nil, fmt.Errorf("%w: warm-up (%d) plus window (%d) exceed the run (%d probes)",
			ErrBadPlan, warm, length, total)
	}
	ws := make([]window, p.Windows)
	for j := range ws {
		var start int
		if p.Windows == 1 {
			start = (total - span) / 2
		} else {
			start = j * (total - span) / (p.Windows - 1)
		}
		ws[j] = window{start: start, warm: warm, length: length}
	}
	return ws, nil
}

// IntervalEstimate is Engine B's extrapolation for one spec: full-run
// cycles and hit rate estimated from the sampled windows, the cycles
// with a two-sided 95% Student-t confidence half-width (zero when only
// one window was sampled — a point estimate carries no variance
// information).
type IntervalEstimate struct {
	Probes  int // full-run probe count being extrapolated to
	Windows int

	Cycles   float64
	CyclesCI float64
	HitRate  float64

	// SampledProbes is the number of probes actually simulated (warm-up
	// and measurement, across both runs of every window) and SimCycles
	// the simulated cycles spent — the numerator of the tier's
	// work-reduction claim. Both are deterministic simulation counters,
	// not wall-clock.
	SampledProbes int
	SimCycles     uint64

	// Checked is true when every window run passed the simulator's
	// functional validation against the reference implementation.
	Checked bool
}

// EstimateWidx samples spec through the runner (so window runs land in
// the content-addressed cache under their own window-keyed hashes) and
// extrapolates full-run cycles and hit rate.
func EstimateWidx(r *runner.Runner, spec runner.Spec, plan IntervalPlan) (*IntervalEstimate, error) {
	if r == nil {
		return nil, fmt.Errorf("%w: nil runner", ErrBadPlan)
	}
	if spec.DSA != runner.DSAWidx && spec.DSA != runner.DSADASX {
		return nil, fmt.Errorf("%w: %s does not support sampled windows", ErrUnsupported, spec.DSA)
	}
	if spec.WinLen != 0 {
		return nil, fmt.Errorf("%w: spec already carries a window", ErrUnsupported)
	}
	if spec.Check || spec.Faults.Any() {
		return nil, fmt.Errorf("%w: sampled estimation under fault injection is not meaningful", ErrUnsupported)
	}
	var prof hashidx.Profile
	found := false
	for _, p := range hashidx.TPCH() {
		if p.Name == spec.Workload {
			prof, found = p, true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("%w: unknown workload %q", ErrUnsupported, spec.Workload)
	}
	ws := spec.WorkScale
	if ws <= 0 {
		ws = spec.Scale
	}
	total := widx.DefaultWork(prof, ws).Probes
	wins, err := plan.layout(total)
	if err != nil {
		return nil, err
	}

	// Two runs per window (warm-up-only, warm-up+window); the warm-up-only
	// run is skipped when the plan has no warm-up.
	specs := make([]runner.Spec, 0, 2*len(wins))
	warmAt := make([]int, len(wins)) // index into specs, -1 when skipped
	fullAt := make([]int, len(wins))
	for j, w := range wins {
		warmAt[j] = -1
		if w.warm > 0 {
			s := spec
			s.WinStart, s.WinLen = w.start, w.warm
			warmAt[j] = len(specs)
			specs = append(specs, s)
		}
		s := spec
		s.WinStart, s.WinLen = w.start, w.warm+w.length
		fullAt[j] = len(specs)
		specs = append(specs, s)
	}
	results, err := r.Run(specs)
	if err != nil {
		return nil, err
	}

	est := &IntervalEstimate{Probes: total, Windows: len(wins), Checked: true}
	cycPP := make([]float64, len(wins)) // cycles per probe
	rates := make([]float64, len(wins))
	for j, w := range wins {
		full := results[fullAt[j]]
		var warm dsa.Result
		if warmAt[j] >= 0 {
			warm = results[warmAt[j]]
		}
		est.Checked = est.Checked && full.Checked && (warmAt[j] < 0 || warm.Checked)
		est.SimCycles += full.Cycles + warm.Cycles
		est.SampledProbes += (w.warm + w.length) + w.warm

		dCyc := subU64(full.Cycles, warm.Cycles)
		dHit := subU64(full.OnChipHits, warm.OnChipHits)
		dMiss := subU64(full.OnChipMisses, warm.OnChipMisses)
		cycPP[j] = float64(dCyc) / float64(w.length)
		if dHit+dMiss > 0 {
			rates[j] = float64(dHit) / float64(dHit+dMiss)
		}
	}

	est.Cycles, est.CyclesCI = scaleStat(cycPP, float64(total))
	est.HitRate, _ = scaleStat(rates, 1)
	return est, nil
}

// subU64 is saturating subtraction: the warm-up-only run is a prefix of
// the window run, so its counters never exceed the window run's except
// through sub-cycle drain effects, which clamp to zero.
func subU64(a, b uint64) uint64 {
	if b > a {
		return 0
	}
	return a - b
}

// scaleStat returns mean(xs)*scale and the matching 95% t-interval
// half-width. One sample yields a zero half-width.
func scaleStat(xs []float64, scale float64) (mean, ci float64) {
	n := float64(len(xs))
	for _, x := range xs {
		mean += x
	}
	mean /= n
	if len(xs) < 2 {
		return mean * scale, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / (n - 1))
	ci = tCrit95(len(xs)-1) * sd / math.Sqrt(n)
	return mean * scale, ci * scale
}

// tCrit95 is the two-sided 95% Student-t critical value for df degrees of
// freedom. Engine B samples a handful of windows, so a small exact table
// suffices; larger df fall back to the normal approximation.
func tCrit95(df int) float64 {
	table := [...]float64{
		1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
		6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
	}
	if df >= 1 && df <= 10 {
		return table[df]
	}
	return 1.960
}
