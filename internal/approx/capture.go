// Package approx is the approximate evaluation tier: fast, bounded-error
// estimates of sweep cells that the exact cycle-accurate simulator would
// take orders of magnitude longer to produce.
//
// Two engines, both fed from the exact simulator so they inherit its
// workload generation and semantics rather than re-modelling them:
//
//   - Engine A (ReplayTags): one-pass multi-configuration tag simulation.
//     A single exact "donor" run records its meta-tag reference trace;
//     replaying that trace against N alternative cache geometries
//     simultaneously yields each geometry's hit/miss ratio in one pass.
//     Replaying against the donor's own geometry is bit-exact.
//
//   - Engine B (EstimateWidx): warm-up + sampled execution windows. K
//     short windows of the full simulator are run (each preceded by a
//     warm-up slice whose stats are subtracted out) and the per-window
//     cycles and hit rate are extrapolated to the full run, the cycles
//     with a Student-t confidence interval.
package approx

import (
	"fmt"

	"xcache/internal/ctrl"
	"xcache/internal/dsa"
	"xcache/internal/exp/runner"
)

// Capture is one donor run's recorded reference trace plus the exact
// result it produced. It is the input to Engine A.
type Capture struct {
	Spec   runner.Spec
	Events []ctrl.TraceEvent
	Donor  dsa.Result

	// DonorHits/DonorMisses are recomputed from the event classes and
	// cross-checked against the donor result at capture time, so a
	// Capture in hand is already validated self-consistent.
	DonorHits   uint64
	DonorMisses uint64
}

// recorder is the trivial TraceSink: append everything.
type recorder struct{ events []ctrl.TraceEvent }

func (r *recorder) Trace(ev ctrl.TraceEvent) { r.events = append(r.events, ev) }

// CaptureWidx runs the spec exactly once with the controller trace tap
// attached and returns the recorded reference stream. The spec must be a
// plain Widx/X-Cache cell: no fault injection, no hardening harness, no
// sampled window, default (coroutine) exec mode — anything else either
// cannot emit a trace or would emit one the replay model cannot mirror.
func CaptureWidx(spec runner.Spec) (*Capture, error) {
	if spec.DSA != runner.DSAWidx || spec.Kind != dsa.KindXCache {
		return nil, fmt.Errorf("%w: capture requires %s[%s], got %s[%s]",
			ErrUnsupported, runner.DSAWidx, dsa.KindXCache, spec.DSA, spec.Kind)
	}
	if spec.Check || spec.Faults.Any() {
		return nil, fmt.Errorf("%w: capture cannot run under the hardening harness", ErrUnsupported)
	}
	if spec.WinLen != 0 {
		return nil, fmt.Errorf("%w: capture requires the full run, not a sampled window", ErrUnsupported)
	}
	if spec.Mode != ctrl.ModeCoroutine {
		return nil, fmt.Errorf("%w: capture requires the default exec mode", ErrUnsupported)
	}
	rec := &recorder{}
	res, err := spec.ExecuteTraced(rec)
	if err != nil {
		return nil, err
	}
	c := &Capture{Spec: spec, Events: rec.events, Donor: res}
	for _, ev := range rec.events {
		switch ev.Kind {
		case ctrl.TraceReq:
			switch ev.Class {
			case ctrl.ClassHit:
				c.DonorHits++
			case ctrl.ClassMiss:
				c.DonorMisses++
			}
		case ctrl.TraceAllocRetry:
			// An allocation conflict pushed the origin request back to
			// replay, where the front-end classifies it a second time.
			// The replay model cannot tell that re-admission from a
			// waiter replay, so the donor-exactness guarantee is void.
			return nil, fmt.Errorf("%w: donor trace contains allocation retries", ErrUnsupported)
		}
	}
	if c.DonorHits != res.OnChipHits || c.DonorMisses != res.OnChipMisses {
		return nil, fmt.Errorf("approx: capture self-check failed: trace classes %d/%d vs controller %d/%d",
			c.DonorHits, c.DonorMisses, res.OnChipHits, res.OnChipMisses)
	}
	return c, nil
}
