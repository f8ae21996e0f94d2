package check

import (
	"fmt"

	"xcache/internal/sim"
)

// CoherenceViolation is the typed error a coherence protocol failure
// latches: the rule that broke, the line, and the evidence. The
// multi-level hierarchy (internal/hier's Directory) checks its own
// protocol every cycle once Attach enables it, and reports through its
// CheckInvariants:
//
//   - single-writer: at most one L1 holds a line Modified, and a Modified
//     copy excludes Shared copies elsewhere;
//   - inclusion: any line cached in an L1 is present in the L2, or is in
//     flight inside the directory (a transaction or back-invalidation);
//   - no-stale-fill: every value an L1 serves (hit, grant) must match an
//     oracle fed by the grant and store history;
//   - liveness: a snoop went unacknowledged past the retry budget.
//
// The supervised Run classifies it as FailCoherence, so callers —
// cmd/xcache-sim in particular — can distinguish a protocol bug from an
// ordinary invariant failure.
type CoherenceViolation struct {
	Cycle  sim.Cycle
	Rule   string // single-writer | inclusion | no-stale-fill | liveness
	Key    [2]uint64
	Detail string
}

func (v *CoherenceViolation) Error() string {
	return fmt.Sprintf("cycle %d: coherence %s violation on key {%d,%d}: %s",
		v.Cycle, v.Rule, v.Key[0], v.Key[1], v.Detail)
}
