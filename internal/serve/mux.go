package serve

import (
	"fmt"

	"xcache/internal/dram"
	"xcache/internal/sim"
)

// Shard-id tagging for requests multiplexed onto the shared DRAM
// channels. A shard's controller puts its walker index in the low 32
// bits and its writeback flag in bit 63, so bits 32..47 are free for the
// shard index (request-ID layout: DESIGN.md §9).
const (
	muxShardShift = 32
	muxShardMask  = uint64(0xffff)
)

// ChannelPolicy selects how the mux steers a request to a DRAM channel
// when every channel is healthy.
type ChannelPolicy int

// The steering policies.
const (
	// PolicyInterleave spreads traffic by address at row granularity
	// (addr/RowBytes mod M): every shard uses every channel, so one
	// shard's burst cannot monopolize a channel.
	PolicyInterleave ChannelPolicy = iota
	// PolicyAffine pins each shard to channel (shard mod M): channel
	// locality is maximal (row-buffer hits survive interleaving) at the
	// price of per-shard hot spots.
	PolicyAffine
)

// String names the policy for flags and JSON.
func (p ChannelPolicy) String() string {
	switch p {
	case PolicyInterleave:
		return "interleave"
	case PolicyAffine:
		return "affine"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParseChannelPolicy is the inverse of String, for the CLI flag.
func ParseChannelPolicy(s string) (ChannelPolicy, error) {
	switch s {
	case "interleave", "":
		return PolicyInterleave, nil
	case "affine":
		return PolicyAffine, nil
	}
	return 0, fmt.Errorf("serve: unknown channel policy %q (want interleave|affine)", s)
}

// Channel health states for the failover state machine.
type chanHealth int

const (
	chanHealthy chanHealth = iota
	// chanQuarantined: the watchdog saw no progress for a full window
	// while work was pending; traffic is re-steered away until a probe
	// succeeds.
	chanQuarantined
	// chanProbing: the quarantine cooldown expired; up to probeNeed
	// requests are routed natively as half-open probes. Enough returned
	// responses re-admit the channel; silence re-quarantines it with a
	// doubled cooldown.
	chanProbing
)

func (h chanHealth) String() string {
	switch h {
	case chanHealthy:
		return "healthy"
	case chanQuarantined:
		return "quarantined"
	case chanProbing:
		return "probing"
	}
	return fmt.Sprintf("health(%d)", int(h))
}

// Failover tuning. The watchdog window must comfortably exceed a loaded
// channel's worst-case service time (hundreds of cycles) but sit well
// below the controller fill-retry timeout (1024) so re-steering beats
// the first retry wave; probes and cooldowns are sized to the same
// scale, with the breaker-style doubling bounding probe spam during a
// long outage.
const (
	chanWatchdog     = 512  // silent cycles (with work pending) before quarantine
	chanProbeNeed    = 4    // returned responses required to re-admit
	chanProbeTimeout = 1024 // cycles after the first probe before giving up
	chanCooldownBase = 1024 // quarantine → first probe delay
	chanCooldownCap  = 16   // max cooldown doubling multiplier
	chanMaxErrors    = 16   // DegradedError records kept per run
)

// muxChannel is one DRAM channel plus its health/failover state.
type muxChannel struct {
	d      *dram.DRAM
	health chanHealth

	lastSig      uint64    // progress signature at last observed change
	lastProgress sim.Cycle // cycle of that change

	quarantinedAt sim.Cycle
	cooldownMult  int       // doubling multiplier, capped at chanCooldownCap
	probeStart    sim.Cycle // cycle the first live probe was forwarded (0 = none yet)
	probeSent     int
	probeBase     uint64 // returned count when probing began

	forwarded         uint64
	returned          uint64
	resteeredAway     uint64 // requests this channel would have owned, steered elsewhere
	quarantines       uint64
	quarantinedCycles uint64 // cycles spent not healthy
}

// dramMux funnels the per-shard memory channels into M shared DRAM
// channels: requests are steered by policy (shard id tagged into the
// request id), responses are routed back by that tag with the id
// restored. It is a plain serially-ticked component, so the shared
// channels need no locking even when the shards tick in parallel — the
// shards only touch their own queue endpoints.
//
// Failover: a per-channel watchdog watches a progress signature (DRAM
// activity + responses drained). A channel that sits silent for a full
// window with work pending is quarantined — its traffic deterministically
// re-steers to the next healthy channel by index — and re-admitted
// through a breaker-style half-open probe. Requests already stuck inside
// a quarantined channel are recovered by the controllers' fill-retry
// path: the retry re-enters the mux and is steered healthy, and the late
// original response (if the channel ever wakes) is deduplicated upstream.
type dramMux struct {
	chans    []*muxChannel
	reqs     []*sim.Queue[dram.Request]
	resps    []*sim.Queue[dram.Response]
	rr       int
	policy   ChannelPolicy
	rowBytes uint64

	forwarded      uint64
	returned       uint64
	resteered      uint64
	degradedCycles uint64 // cycles with ≥1 channel not healthy
	errs           []*DegradedError
}

func newDRAMMux(k *sim.Kernel, chans []*dram.DRAM, policy ChannelPolicy,
	reqs []*sim.Queue[dram.Request], resps []*sim.Queue[dram.Response]) *dramMux {
	if len(reqs) != len(resps) {
		panic(fmt.Sprintf("serve: mux port mismatch: %d req vs %d resp", len(reqs), len(resps)))
	}
	if len(chans) == 0 {
		panic("serve: mux with no channels")
	}
	m := &dramMux{reqs: reqs, resps: resps, policy: policy, rowBytes: chans[0].Cfg.RowBytes}
	for _, d := range chans {
		m.chans = append(m.chans, &muxChannel{d: d, cooldownMult: 1})
	}
	k.Add(m)
	return m
}

// prefer is the policy's native channel for a request — the channel that
// owns it when everything is healthy.
func (m *dramMux) prefer(shard int, addr uint64) int {
	if len(m.chans) == 1 {
		return 0
	}
	if m.policy == PolicyAffine {
		return shard % len(m.chans)
	}
	return int(addr / m.rowBytes % uint64(len(m.chans)))
}

// steer picks the channel a request actually goes to this cycle: the
// native channel when it is healthy (or probing with probe budget and
// room), else the next healthy channel by index with queue space, else
// -1 (nowhere to go — the request waits in its shard queue). Pure
// decision: push-side bookkeeping happens in noteForward after the push
// succeeds.
func (m *dramMux) steer(pref int) int {
	ch := m.chans[pref]
	switch ch.health {
	case chanHealthy:
		if ch.d.Req.CanPush() {
			return pref
		}
		// Transient fullness on a healthy channel is ordinary
		// backpressure, not degradation: hold rather than re-steer, so
		// single-channel semantics (and row locality) are preserved.
		return -1
	case chanProbing:
		if ch.probeSent < chanProbeNeed && ch.d.Req.CanPush() {
			return pref
		}
	}
	for i := 1; i < len(m.chans); i++ {
		c := (pref + i) % len(m.chans)
		if m.chans[c].health == chanHealthy && m.chans[c].d.Req.CanPush() {
			return c
		}
	}
	return -1
}

// noteForward records a successful push onto channel ci for a request
// natively owned by pref.
func (m *dramMux) noteForward(c sim.Cycle, pref, ci int) {
	m.forwarded++
	ch := m.chans[ci]
	ch.forwarded++
	if ci != pref {
		m.resteered++
		m.chans[pref].resteeredAway++
	}
	if ch.health == chanProbing {
		ch.probeSent++
		if ch.probeStart == 0 {
			ch.probeStart = c
		}
	}
}

// quarantine moves a channel to the quarantined state and records the
// typed degradation error.
func (m *dramMux) quarantine(c sim.Cycle, ci int, reason string) {
	ch := m.chans[ci]
	ch.health = chanQuarantined
	ch.quarantinedAt = c
	ch.quarantines++
	if len(m.errs) < chanMaxErrors {
		m.errs = append(m.errs, &DegradedError{Channel: ci, Cycle: uint64(c), Reason: reason})
	}
}

// updateHealth runs the per-channel failover state machine once per
// cycle, before any steering: watchdog detection, cooldown expiry, and
// probe verdicts all use the state as of the top of the cycle, so the
// decision sequence is identical at every TickWorkers setting.
func (m *dramMux) updateHealth(c sim.Cycle) {
	degraded := false
	for ci, ch := range m.chans {
		sig := ch.d.ActivityCount() + ch.returned
		if sig != ch.lastSig {
			ch.lastSig = sig
			ch.lastProgress = c
		}
		switch ch.health {
		case chanHealthy:
			hasWork := ch.d.Pending() > 0 || ch.d.Req.Len() > 0
			if len(m.chans) > 1 && hasWork && c-ch.lastProgress >= chanWatchdog {
				m.quarantine(c, ci, fmt.Sprintf("no progress for %d cycles", c-ch.lastProgress))
			}
		case chanQuarantined:
			cooldown := sim.Cycle(chanCooldownBase * ch.cooldownMult)
			if c-ch.quarantinedAt >= cooldown {
				ch.health = chanProbing
				ch.probeSent = 0
				ch.probeStart = 0
				ch.probeBase = ch.returned
			}
		case chanProbing:
			if ch.returned-ch.probeBase >= chanProbeNeed {
				// The channel answered a full probe burst: re-admit and
				// reset the cooldown backoff.
				ch.health = chanHealthy
				ch.cooldownMult = 1
				ch.lastProgress = c
			} else if ch.probeStart > 0 && c-ch.probeStart >= chanProbeTimeout {
				if ch.cooldownMult < chanCooldownCap {
					ch.cooldownMult *= 2
				}
				m.quarantine(c, ci, fmt.Sprintf("probe timeout after %d cycles", c-ch.probeStart))
			}
		}
		if ch.health != chanHealthy {
			ch.quarantinedCycles++
			degraded = true
		}
	}
	if degraded {
		m.degradedCycles++
	}
}

// Tick implements sim.Component.
func (m *dramMux) Tick(c sim.Cycle) {
	m.updateHealth(c)

	// Responses first: route by shard tag. A full shard response queue
	// blocks head-of-line; the DRAM model's own respHold spill keeps the
	// channel itself from wedging behind it.
	for _, ch := range m.chans {
		for {
			r, ok := ch.d.Resp.Peek()
			if !ok {
				break
			}
			s := int(r.ID >> muxShardShift & muxShardMask)
			if s >= len(m.resps) {
				panic(fmt.Sprintf("serve: mux response with shard tag %d of %d", s, len(m.resps)))
			}
			if !m.resps[s].CanPush() {
				break
			}
			ch.d.Resp.Pop()
			r.ID &^= muxShardMask << muxShardShift
			m.resps[s].MustPush(r)
			ch.returned++
			m.returned++
		}
	}

	// Requests: round-robin across shards for fairness. Each pass pops
	// at most one request per shard; a shard whose target channel has no
	// room is skipped (head-of-line holds) and the loop ends when a full
	// pass makes no progress.
	for {
		advanced := false
		for i := 0; i < len(m.reqs); i++ {
			s := (m.rr + i) % len(m.reqs)
			rq, ok := m.reqs[s].Peek()
			if !ok {
				continue
			}
			pref := m.prefer(s, rq.Addr)
			ci := m.steer(pref)
			if ci < 0 {
				continue
			}
			m.reqs[s].Pop()
			rq.ID |= uint64(s) << muxShardShift
			m.chans[ci].d.Req.MustPush(rq)
			m.noteForward(c, pref, ci)
			advanced = true
			m.rr = (s + 1) % len(m.reqs)
		}
		if !advanced {
			break
		}
	}
}

// degraded reports whether any channel is currently not healthy, with
// the first still-standing quarantine's typed error.
func (m *dramMux) degraded() *DegradedError {
	for ci, ch := range m.chans {
		if ch.health != chanHealthy {
			for _, e := range m.errs {
				if e.Channel == ci {
					return e
				}
			}
			return &DegradedError{Channel: ci, Cycle: uint64(ch.quarantinedAt), Reason: "quarantined"}
		}
	}
	return nil
}

// DiagnoseName implements check.Diagnoser.
func (m *dramMux) DiagnoseName() string { return "mux" }

// Diagnose implements check.Diagnoser: per-channel health and traffic,
// for StallReports.
func (m *dramMux) Diagnose() []string {
	out := []string{fmt.Sprintf("policy=%s forwarded=%d returned=%d resteered=%d degraded_cycles=%d",
		m.policy, m.forwarded, m.returned, m.resteered, m.degradedCycles)}
	for ci, ch := range m.chans {
		out = append(out, fmt.Sprintf("channel%d: %s forwarded=%d returned=%d quarantines=%d pending=%d req=%d",
			ci, ch.health, ch.forwarded, ch.returned, ch.quarantines, ch.d.Pending(), ch.d.Req.Len()))
	}
	return out
}
