package serve

import "xcache/internal/sim"

// BreakerConfig tunes the per-shard circuit breaker.
type BreakerConfig struct {
	// Window is the decay period for the trip counters: every Window
	// cycles the accumulated trap/timeout counts halve, so only a
	// *sustained* fault rate trips the breaker while an isolated blip
	// decays away. Default 2048.
	Window int
	// TrapTrip is the decayed trap count that opens the breaker (default
	// 2 — traps are structural and deterministic, so tolerance is low).
	TrapTrip int
	// TimeoutTrip is the decayed attempt-timeout count that opens the
	// breaker (default 32 — timeouts can be transient congestion).
	TimeoutTrip int
	// Cooldown is how long the shard rests after draining before probes
	// are admitted; it doubles (capped at 16×) each time a probe round
	// fails. Default 2048.
	Cooldown int
	// Probes is the number of consecutive half-open successes required to
	// close again. Default 4.
	Probes int
}

func (c *BreakerConfig) defaults() {
	if c.Window == 0 {
		c.Window = 2048
	}
	if c.TrapTrip == 0 {
		c.TrapTrip = 2
	}
	if c.TimeoutTrip == 0 {
		c.TimeoutTrip = 32
	}
	if c.Cooldown == 0 {
		c.Cooldown = 2048
	}
	if c.Probes == 0 {
		c.Probes = 4
	}
}

// BreakerState is the classic three-state circuit-breaker machine.
type BreakerState int

// The breaker states.
const (
	BreakerClosed   BreakerState = iota // healthy: admit everything
	BreakerOpen                         // tripped: shed, drain, cool down
	BreakerHalfOpen                     // probing: admit a few, watch them
)

// String names the state for logs and JSON.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "breaker(?)"
}

// breaker is one shard's circuit breaker. Closed, it counts traps and
// attempt timeouts with periodic decay; past a threshold it opens: new
// requests shed with ShedBreaker while the shard drains through the
// controller's trap-quiesce path, the latched ctrl.Trap is cleared, and
// after a cooldown a few probe requests test the water. Probe successes
// close it; a probe failure reopens with a doubled cooldown.
type breaker struct {
	cfg   BreakerConfig
	state BreakerState

	traps     int
	timeouts  int
	lastDecay sim.Cycle

	drained       bool
	cooldown      int // current cooldown (doubles per failed probe round)
	cooldownUntil sim.Cycle
	probeBudget   int // half-open admissions remaining
	probeOK       int // consecutive probe successes

	// Lifetime accounting for the report.
	trips      uint64
	openCycles uint64
}

func newBreaker(cfg BreakerConfig) breaker {
	cfg.defaults()
	return breaker{cfg: cfg, cooldown: cfg.Cooldown}
}

// admit reports whether a new request may enter the shard, and whether it
// is a half-open probe (the caller tags it so completions and timeouts
// feed back into probeSuccess/probeFail).
func (b *breaker) admit() (ok, probe bool) {
	switch b.state {
	case BreakerClosed:
		return true, false
	case BreakerHalfOpen:
		if b.probeBudget > 0 {
			b.probeBudget--
			return true, true
		}
	}
	return false, false
}

// allowForward reports whether the shard should be fed from its ingress
// queue this cycle. Open means drain: nothing new reaches the controller.
func (b *breaker) allowForward() bool {
	return b.state != BreakerOpen
}

func (b *breaker) trip(c sim.Cycle) {
	if b.state == BreakerOpen {
		return
	}
	b.state = BreakerOpen
	b.trips++
	b.drained = false
	b.traps, b.timeouts = 0, 0
	b.probeOK = 0
}

// recordTrap feeds n controller traps into the trip counters.
func (b *breaker) recordTrap(n int, c sim.Cycle) {
	if n <= 0 {
		return
	}
	switch b.state {
	case BreakerClosed:
		b.traps += n
		if b.traps >= b.cfg.TrapTrip {
			b.trip(c)
		}
	case BreakerHalfOpen:
		// A trap during probing: the shard is still sick.
		b.probeFail(c)
	}
}

// recordTimeout feeds one attempt timeout into the trip counters.
func (b *breaker) recordTimeout(c sim.Cycle) {
	if b.state != BreakerClosed {
		return
	}
	b.timeouts++
	if b.timeouts >= b.cfg.TimeoutTrip {
		b.trip(c)
	}
}

// probeSuccess records a completed half-open probe.
func (b *breaker) probeSuccess() {
	if b.state != BreakerHalfOpen {
		return
	}
	b.probeOK++
	if b.probeOK >= b.cfg.Probes {
		b.state = BreakerClosed
		b.traps, b.timeouts = 0, 0
		b.cooldown = b.cfg.Cooldown
	}
}

// probeFail reopens the breaker with a doubled (capped) cooldown.
func (b *breaker) probeFail(c sim.Cycle) {
	if b.state != BreakerHalfOpen {
		return
	}
	if b.cooldown < 16*b.cfg.Cooldown {
		b.cooldown *= 2
	}
	b.trip(c)
}

// maintain advances time-driven transitions. idle reports whether the
// shard's controller has fully drained (walkers retired, fills answered);
// maintain returns true exactly once per open episode when the drain
// completes — the caller clears the controller's latched trap then.
func (b *breaker) maintain(c sim.Cycle, idle func() bool) (clearTrap bool) {
	// Counter decay keeps "sustained rate" semantics.
	if c-b.lastDecay >= sim.Cycle(b.cfg.Window) {
		b.traps /= 2
		b.timeouts /= 2
		b.lastDecay = c
	}
	if b.state != BreakerOpen {
		return false
	}
	b.openCycles++
	if !b.drained {
		if !idle() {
			return false
		}
		b.drained = true
		b.cooldownUntil = c + sim.Cycle(b.cooldown)
		return true
	}
	if c >= b.cooldownUntil {
		b.state = BreakerHalfOpen
		b.probeBudget = b.cfg.Probes
		b.probeOK = 0
	}
	return false
}
