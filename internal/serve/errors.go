package serve

import "fmt"

// DegradedError is the typed channel-degradation record: which channel
// was quarantined, when, and why. Degradation is not fatal — the mux
// re-steers traffic around the sick channel — so the records are
// surfaced in the report rather than aborting the run.
type DegradedError struct {
	Channel int
	Cycle   uint64
	Reason  string // e.g. "no progress for 512 cycles", "probe timeout"
}

// Error implements error.
func (e *DegradedError) Error() string {
	return fmt.Sprintf("serve: degraded: channel %d quarantined at cycle %d (%s)", e.Channel, e.Cycle, e.Reason)
}
