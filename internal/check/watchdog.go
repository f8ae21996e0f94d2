package check

import (
	"encoding/json"
	"fmt"
	"strings"

	"xcache/internal/sim"
	"xcache/internal/stats"
)

// watchdog detects deadlock and livelock by folding the kernel's move
// counter (every push and pop on every queue) and every component's
// activity counter into a single progress signature each cycle. All
// counters are monotonic, so the sum strictly increases whenever anything
// happens; a frozen sum for the configured window means the machine is
// wedged. Every queue stamps its own last-pop cycle, so a report can
// single out the queues nobody has drained for a full window even while
// the rest of the machine runs.
type watchdog struct {
	window sim.Cycle
	k      *sim.Kernel
	acts   []activitySource

	lastSig    uint64
	lastChange sim.Cycle
}

func newWatchdog(k *sim.Kernel, window int) *watchdog {
	w := &watchdog{window: sim.Cycle(window), k: k}
	for _, c := range k.Components() {
		if a, ok := c.(activitySource); ok {
			w.acts = append(w.acts, a)
		}
	}
	return w
}

func (w *watchdog) signature() uint64 {
	s := w.k.Moves()
	for _, a := range w.acts {
		s += a.ActivityCount()
	}
	return s
}

// AfterStep implements sim.Observer.
func (w *watchdog) AfterStep(c sim.Cycle) {
	if s := w.signature(); s != w.lastSig {
		w.lastSig = s
		w.lastChange = c
	}
}

// stalled reports whether no forward progress has been observed for the
// full window.
func (w *watchdog) stalled(c sim.Cycle) bool {
	return c-w.lastChange >= w.window
}

// stallFor returns how long the machine has made no progress.
func (w *watchdog) stallFor(c sim.Cycle) sim.Cycle {
	return c - w.lastChange
}

// frozen reports whether q has gone a full window without a pop.
func (w *watchdog) frozen(q sim.QueueInfo, now sim.Cycle) bool {
	return now-q.LastPop() >= w.window
}

// QueueState is one queue's occupancy snapshot inside a StallReport.
type QueueState struct {
	Name   string
	Len    int
	Staged int
	Cap    int
	MaxLen int
	Pushes uint64
	Pops   uint64
	// Stuck marks a queue holding entries that nobody has popped since
	// the last observed forward progress — the prime deadlock suspects.
	Stuck bool
}

// ComponentState carries a component's self-description (in-flight
// walkers, per-bank DRAM state, ...) inside a StallReport.
type ComponentState struct {
	Name   string
	Detail []string
}

// FailureKind classifies why a supervised run aborted. It is the root
// of the structured error taxonomy consumed by internal/exp/runner (which
// lifts it into runner.FailKind) and by cmd/xcache-sim's exit codes.
type FailureKind int

// The supervised abort causes.
const (
	FailStall     FailureKind = iota + 1 // watchdog: no forward progress for a full window
	FailInvariant                        // per-cycle invariant checker violation
	FailOverflow                         // recovered queue-overflow (MustPush) panic
	FailBudget                           // cycle budget exhausted while still making progress
	FailTrap                             // structural microcode fault (ctrl.Trap): walker quiesced
	FailCoherence                        // hierarchy coherence protocol violation (CoherenceViolation)
)

// MarshalJSON renders the kind by name, so a serialized StallReport is
// self-describing.
func (k FailureKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// String names the kind for logs and JSON output.
func (k FailureKind) String() string {
	switch k {
	case FailStall:
		return "stall"
	case FailInvariant:
		return "invariant"
	case FailOverflow:
		return "overflow"
	case FailBudget:
		return "budget"
	case FailTrap:
		return "trap"
	case FailCoherence:
		return "coherence"
	}
	return fmt.Sprintf("failure(%d)", int(k))
}

// Failure is the typed error a supervised run aborts with: the kind plus
// the full StallReport (nil only for an unsupervised budget exhaustion,
// where no harness was attached to collect one). For FailTrap, Trap
// carries the underlying ctrl.Trap so errors.As can reach it.
type Failure struct {
	Kind   FailureKind
	Report *StallReport
	Trap   error // the *ctrl.Trap behind a FailTrap abort, else nil
}

// Error renders the full report so existing log output keeps its
// diagnostic tables.
func (f *Failure) Error() string {
	if f.Report != nil {
		return f.Report.String()
	}
	return fmt.Sprintf("%s: cycle budget exhausted (unsupervised run)", f.Kind)
}

// Unwrap exposes the underlying trap (if any) to errors.Is/As.
func (f *Failure) Unwrap() error { return f.Trap }

// StallReport is the structured post-mortem produced when a supervised
// run fails: watchdog stall, invariant violation, queue overflow, or
// cycle-budget exhaustion.
type StallReport struct {
	Kind        FailureKind
	Cycle       sim.Cycle
	Reason      string
	StallCycles sim.Cycle // cycles since the last observed forward progress
	Queues      []QueueState
	Components  []ComponentState

	// Trap carries the underlying *ctrl.Trap when Kind == FailTrap; its
	// rendering is already folded into Reason, so it is skipped in JSON.
	Trap error `json:"-"`
}

// Failure wraps the report as a typed error. It is nil-safe: a nil
// report (unsupervised run that never reached done within its budget)
// yields a bare budget failure, so call sites can wrap unconditionally.
func (r *StallReport) Failure() *Failure {
	if r == nil {
		return &Failure{Kind: FailBudget}
	}
	return &Failure{Kind: r.Kind, Report: r, Trap: r.Trap}
}

// StuckQueues returns the names of queues flagged Stuck, the usual
// starting point for diagnosing a wedge.
func (r *StallReport) StuckQueues() []string {
	if r == nil {
		return nil
	}
	var names []string
	for _, q := range r.Queues {
		if q.Stuck {
			names = append(names, q.Name)
		}
	}
	return names
}

// String renders the full report: reason, queue table, component detail.
func (r *StallReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stall report @ cycle %d: %s", r.Cycle, r.Reason)
	// The watchdog reason already states the stall length; add it only for
	// the other failure modes (overflow, invariant, budget).
	if r.StallCycles > 0 && !strings.HasPrefix(r.Reason, "no forward progress") {
		fmt.Fprintf(&b, " (no progress for %d cycles)", r.StallCycles)
	}
	b.WriteString("\n")
	t := stats.NewTable("", "queue", "len", "staged", "cap", "max", "pushes", "pops", "")
	for _, q := range r.Queues {
		mark := ""
		if q.Stuck {
			mark = "STUCK"
		}
		t.Add(q.Name, stats.I(q.Len), stats.I(q.Staged), stats.I(q.Cap),
			stats.I(q.MaxLen), stats.I(q.Pushes), stats.I(q.Pops), mark)
	}
	b.WriteString(t.String())
	for _, c := range r.Components {
		fmt.Fprintf(&b, "--- %s ---\n", c.Name)
		for _, line := range c.Detail {
			b.WriteString("  " + line + "\n")
		}
	}
	return b.String()
}
