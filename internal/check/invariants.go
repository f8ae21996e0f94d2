package check

import (
	"fmt"

	"xcache/internal/sim"
)

// invariants audits the kernel after every step: per-queue conservation
// (pushes − pops == occupancy, nothing staged after commit, occupancy ≤
// capacity) plus each component's own CheckInvariants (controller wake
// and action budgets, MSHR ledger, DRAM timing protocol, the coherent
// hierarchy's protocol). The first
// violation is latched; the supervised Run aborts on it with a
// StallReport so the failing cycle's full machine state is preserved.
//
// A step audits only the queues it committed (sim.Kernel.Committed): a
// push and its commit are the only operations that can break a queue's
// rules. Pop moves the pop count and the occupancy together, which
// sim's slice-model test checks after every call, so a queue that is only
// popped is audited at its next commit and by the sweep at the end of the
// run (Harness.Audit). The first step after attach audits every queue, so
// whatever happened before attach is covered once.
type invariants struct {
	k        *sim.Kernel
	queues   []sim.QueueInfo // registration order, for sweeps
	due      []sim.QueueInfo // every queue until the first step audits them
	checkers []selfChecker
	err      error
}

func newInvariants(k *sim.Kernel) *invariants {
	v := &invariants{k: k, queues: k.Queues()}
	v.due = v.queues
	for _, c := range k.Components() {
		if sc, ok := c.(selfChecker); ok {
			v.checkers = append(v.checkers, sc)
		}
	}
	return v
}

// AfterStep implements sim.Observer.
func (v *invariants) AfterStep(c sim.Cycle) {
	if v.err != nil {
		return
	}
	qs := v.k.Committed()
	if v.due != nil {
		qs, v.due = v.due, nil
	}
	for _, q := range qs {
		if queueErr(c, q) != nil {
			// Name the first broken queue in registration order, as a
			// sweep of every queue would.
			v.sweep(c)
			return
		}
	}
	for _, sc := range v.checkers {
		if err := sc.CheckInvariants(c); err != nil {
			v.err = err
			return
		}
	}
}

// sweep audits every queue in registration order and latches the first
// violation.
func (v *invariants) sweep(c sim.Cycle) {
	for _, q := range v.queues {
		if v.err != nil {
			return
		}
		v.err = queueErr(c, q)
	}
}

// queueErr checks one queue's conservation rules.
func queueErr(c sim.Cycle, q sim.QueueInfo) error {
	switch {
	case q.Pushes()-q.Pops() != uint64(q.Len()):
		return fmt.Errorf("cycle %d: queue %s conservation: %d pushes - %d pops != occupancy %d",
			c, q.Name(), q.Pushes(), q.Pops(), q.Len())
	case q.StagedLen() != 0:
		return fmt.Errorf("cycle %d: queue %s holds %d staged entries after commit",
			c, q.Name(), q.StagedLen())
	case q.Len() > q.Cap():
		return fmt.Errorf("cycle %d: queue %s occupancy %d exceeds capacity %d",
			c, q.Name(), q.Len(), q.Cap())
	}
	return nil
}
