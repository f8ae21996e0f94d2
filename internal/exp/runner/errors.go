package runner

import (
	"context"
	"errors"
	"fmt"
	"time"

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
	FailDeadline           // per-spec wall deadline exceeded
	FailCanceled           // context canceled before/while the spec ran
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
	case FailDeadline:
		return "deadline"
	case FailCanceled:
		return "canceled"
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

// deadlineError marks a spec that overran its per-spec wall deadline.
// The simulation goroutine keeps running detached (a cycle-level kernel
// cannot be preempted) but the worker slot is released, so a runaway run
// degrades to a typed error instead of hanging the pool.
type deadlineError struct {
	limit time.Duration
}

func (d *deadlineError) Error() string {
	return fmt.Sprintf("spec wall deadline (%s) exceeded; simulation abandoned", d.limit)
}

// classify folds an execution error into the taxonomy. Supervised
// aborts keep their check kind whether or not the spec injects faults.
// No kind is retried: a run is a pure function of its spec, fault rolls
// included, so only a wall deadline or a cancellation could end
// differently on re-execution, and the runner evicts every failure so a
// later request executes the spec afresh.
func classify(s Spec, err error) *RunError {
	re := &RunError{Key: s.Key(), Err: err}

	var cf *check.Failure
	var trap *ctrl.Trap
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
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		re.Kind = FailCanceled
	default:
		var pe *panicError
		var de *deadlineError
		switch {
		case errors.As(err, &pe):
			re.Kind = FailPanic
		case errors.As(err, &de):
			re.Kind = FailDeadline
		default:
			re.Kind = FailSpec
		}
	}
	return re
}
