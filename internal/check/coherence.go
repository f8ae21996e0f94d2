package check

import (
	"fmt"

	"xcache/internal/sim"
)

// Coherence invariant checking for multi-level hierarchies
// (internal/hier's MESI-lite L1s over a shared inclusive L2). The
// hierarchy exposes its protocol state through CoherenceSource; Attach
// discovers every source on the kernel and audits it per cycle alongside
// the other invariant checkers:
//
//   - single-writer: at most one L1 holds a line Modified, and a Modified
//     copy excludes Shared copies elsewhere;
//   - inclusion: any line cached in an L1 is present in the L2, or is in
//     flight inside the directory (a transaction or back-invalidation);
//   - no-stale-fill: every value an L1 serves (hit, grant, store result)
//     must match an event-driven oracle fed by the grant/store history.
//
// A violation is latched as a typed *CoherenceViolation and surfaces
// through the supervised Run with its own FailureKind (FailCoherence), so
// callers — cmd/xcache-sim in particular — can distinguish a protocol
// bug from an ordinary invariant failure.

// Coherence states as reported in CohLine.L1 / CohEvent.State.
const (
	CohAbsent int8 = 0
	CohShared int8 = 1
	CohMod    int8 = 2
)

// CohEvent kinds.
const (
	CohEvGrant uint8 = iota + 1 // directory granted the line to a port
	CohEvHit                    // an L1 served a load locally
	CohEvApply                  // an L1 applied a store under M; Value is the post-store value
)

// CohLine is one line's cross-hierarchy state inside a snapshot.
type CohLine struct {
	Key     [2]uint64
	L1      []int8 // per-port: CohAbsent / CohShared / CohMod
	L2      bool   // present and stable in the shared L2
	Pending bool   // a directory transaction, L2 walk, or back-inval is in flight
}

// CohSnapshot is the hierarchy's protocol state after one cycle, with
// lines in deterministic (sorted-key) order.
type CohSnapshot struct {
	Lines []CohLine
}

// CohEvent is one value-carrying protocol event, in causal order.
type CohEvent struct {
	Cycle sim.Cycle
	Port  int
	Key   [2]uint64
	Kind  uint8
	State int8
	Value uint64
}

// CoherenceSource is implemented by a component (internal/hier's
// directory) that can snapshot protocol state and surrender the cycle's
// value events. CohEvents drains: each event is returned exactly once.
// A source records events only after RecordCohEvents, which Attach
// calls when it attaches a coherence checker: an unchecked run keeps no
// log. A snapshot, its lines' L1 slices included, and the slice
// CohEvents returns are valid only until the next call of the same
// method: the source refills its buffers in place.
type CoherenceSource interface {
	CohSnapshot() CohSnapshot
	CohEvents() []CohEvent
	RecordCohEvents()
}

// CoherenceViolation is the typed error a coherence invariant failure
// latches: the rule that broke, the line, and the evidence.
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

// cohChecker audits one CoherenceSource per cycle. The value oracle is
// event-driven: the first grant of a line seeds it (the checker does not
// know the backing image), store-applies advance it, and every
// subsequently observed value — hit, grant, store result — must match.
type cohChecker struct {
	src    CoherenceSource
	oracle map[[2]uint64]uint64
}

func newCohChecker(src CoherenceSource) *cohChecker {
	return &cohChecker{src: src, oracle: map[[2]uint64]uint64{}}
}

// CheckInvariants implements selfChecker, so Attach folds coherence
// checking into the standard invariants observer.
func (cc *cohChecker) CheckInvariants(c sim.Cycle) error {
	for _, ev := range cc.src.CohEvents() {
		want, seeded := cc.oracle[ev.Key]
		switch ev.Kind {
		case CohEvGrant, CohEvHit:
			if !seeded {
				cc.oracle[ev.Key] = ev.Value
				continue
			}
			if ev.Value != want {
				kind := "grant"
				if ev.Kind == CohEvHit {
					kind = "hit"
				}
				return &CoherenceViolation{Cycle: ev.Cycle, Rule: "no-stale-fill", Key: ev.Key,
					Detail: fmt.Sprintf("port %d %s served value %d, oracle holds %d", ev.Port, kind, ev.Value, want)}
			}
		case CohEvApply:
			cc.oracle[ev.Key] = ev.Value
		}
	}
	snap := cc.src.CohSnapshot()
	for _, ln := range snap.Lines {
		mods, shared, modPort := 0, 0, -1
		for p, st := range ln.L1 {
			switch st {
			case CohMod:
				mods++
				modPort = p
			case CohShared:
				shared++
			}
		}
		if mods > 1 {
			return &CoherenceViolation{Cycle: c, Rule: "single-writer", Key: ln.Key,
				Detail: fmt.Sprintf("%d ports hold the line Modified", mods)}
		}
		if mods == 1 && shared > 0 {
			return &CoherenceViolation{Cycle: c, Rule: "single-writer", Key: ln.Key,
				Detail: fmt.Sprintf("port %d holds M while %d other ports hold S", modPort, shared)}
		}
		if (mods > 0 || shared > 0) && !ln.L2 && !ln.Pending {
			return &CoherenceViolation{Cycle: c, Rule: "inclusion", Key: ln.Key,
				Detail: "line cached in an L1 but absent from the L2 with no transaction in flight"}
		}
	}
	return nil
}
