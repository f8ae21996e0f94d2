package runner

import (
	"errors"
	"fmt"

	"xcache/internal/check"
	"xcache/internal/ctrl"
)

// FailKind is the runner-level failure taxonomy. The first four lift
// check.FailureKind out of a supervised simulation; the rest are failure
// modes of the sweep engine itself.
type FailKind int

// Every way a spec can fail.
const (
	FailUnknown   FailKind = iota
	FailStall              // watchdog: no forward progress (check.FailStall)
	FailInvariant          // invariant checker violation (check.FailInvariant)
	FailOverflow           // recovered queue-overflow panic (check.FailOverflow)
	FailBudget             // simulation cycle budget exhausted (check.FailBudget)
	FailPanic              // per-worker panic recovered by the pool
	FailSpec               // malformed spec: unknown DSA, workload, or kind
	FailTrap               // structural microcode trap (check.FailTrap / ctrl.Trap)
)

// String names the kind for logs, stats and JSON output.
func (k FailKind) String() string {
	switch k {
	case FailStall:
		return "stall"
	case FailInvariant:
		return "invariant"
	case FailOverflow:
		return "overflow"
	case FailBudget:
		return "budget"
	case FailPanic:
		return "panic"
	case FailSpec:
		return "spec"
	case FailTrap:
		return "trap"
	}
	return fmt.Sprintf("unknown(%d)", int(k))
}

// RunError is the structured error every failing spec resolves to: the
// spec's canonical key, the taxonomy kind, the StallReport when the
// simulation aborted under supervision, and the underlying cause.
type RunError struct {
	Key    string
	Kind   FailKind
	Report *check.StallReport // non-nil for supervised aborts
	Err    error
}

// Error renders the kind plus the cause; the spec key is left to the
// caller (Runner.Run already prefixes it).
func (e *RunError) Error() string {
	return fmt.Sprintf("%s: %v", e.Kind, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *RunError) Unwrap() error { return e.Err }

// panicError is a recovered per-worker panic, isolated so one bad spec
// cannot take down the whole sweep.
type panicError struct {
	val   any
	stack []byte
}

func (p *panicError) Error() string {
	return fmt.Sprintf("recovered panic: %v\n%s", p.val, p.stack)
}

// classify folds an execution error into the taxonomy. Supervised
// aborts keep their check kind whether or not the spec injects faults.
// No kind is retried: a run is a pure function of its spec, fault rolls
// included, so every failure would recur on re-execution.
func classify(s Spec, err error) *RunError {
	re := &RunError{Key: s.Key(), Err: err}

	var cf *check.Failure
	var trap *ctrl.Trap
	var pe *panicError
	switch {
	case errors.As(err, &cf):
		re.Report = cf.Report
		switch cf.Kind {
		case check.FailStall:
			re.Kind = FailStall
		case check.FailInvariant:
			re.Kind = FailInvariant
		case check.FailOverflow:
			re.Kind = FailOverflow
		case check.FailBudget:
			re.Kind = FailBudget
		case check.FailTrap:
			re.Kind = FailTrap
		}
	case errors.As(err, &trap):
		// An unsupervised run surfaced the controller's trap directly.
		re.Kind = FailTrap
	case errors.As(err, &pe):
		re.Kind = FailPanic
	default:
		re.Kind = FailSpec
	}
	return re
}
