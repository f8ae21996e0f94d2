package serve

import (
	"errors"
	"fmt"
)

// ErrOverload is the sentinel all admission-control rejections unwrap to:
// errors.Is(err, ErrOverload) holds for every shed, whatever the reason.
var ErrOverload = errors.New("serve: overload")

// ShedReason classifies why admission control refused a request.
type ShedReason int

// The admission rejection reasons, in the order admission checks them.
const (
	// ShedBreaker: the target shard's circuit breaker is open (or out of
	// half-open probe budget); the shard is being drained or proved.
	ShedBreaker ShedReason = iota + 1
	// ShedRate: the tenant's token bucket is empty — it is offering more
	// than its contracted rate.
	ShedRate
	// ShedQueue: the shard's ingress queue is beyond this priority's
	// depth threshold (lower priorities shed at shallower depths).
	ShedQueue
	// ShedSLO: the tenant's SLO governor has throttled its admission
	// below the contracted rate because its observed p99 exceeded the
	// latency budget — the service is trading this tenant's throughput
	// for its latency, by policy.
	ShedSLO
)

// String names the reason for logs and JSON.
func (r ShedReason) String() string {
	switch r {
	case ShedBreaker:
		return "breaker"
	case ShedRate:
		return "rate"
	case ShedQueue:
		return "queue"
	case ShedSLO:
		return "slo"
	}
	return fmt.Sprintf("shed(%d)", int(r))
}

// OverloadError is the typed admission failure: which tenant was shed, at
// which shard, and why. It unwraps to ErrOverload.
type OverloadError struct {
	Tenant int
	Shard  int
	Reason ShedReason
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: overload: tenant %d shed at shard %d (%s)", e.Tenant, e.Shard, e.Reason)
}

// Unwrap ties the typed error to the ErrOverload sentinel.
func (e *OverloadError) Unwrap() error { return ErrOverload }

// ErrDegraded is the sentinel every channel-degradation condition
// unwraps to: errors.Is(err, ErrDegraded) holds whenever the service is
// (or was) running with a DRAM channel quarantined. Degradation is not
// fatal — the mux re-steers traffic around the sick channel — so it is
// surfaced in reports rather than aborting the run.
var ErrDegraded = errors.New("serve: degraded")

// DegradedError is the typed channel-degradation record: which channel
// was quarantined, when, and why. It unwraps to ErrDegraded.
type DegradedError struct {
	Channel int
	Cycle   uint64
	Reason  string // e.g. "no progress for 512 cycles", "probe timeout"
}

// Error implements error.
func (e *DegradedError) Error() string {
	return fmt.Sprintf("serve: degraded: channel %d quarantined at cycle %d (%s)", e.Channel, e.Cycle, e.Reason)
}

// Unwrap ties the typed error to the ErrDegraded sentinel.
func (e *DegradedError) Unwrap() error { return ErrDegraded }
