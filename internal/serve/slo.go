package serve

import "xcache/internal/stats"

// The SLO governor: per-tenant p99 latency budgets driving an AIMD
// feedback controller over admission. Replaces "shed a fixed queue
// fraction" with "shed whatever it takes to hold the latency target".
//
// Control law, evaluated once per epoch for every tenant with an SLO:
//
//   - violation (observed p99 > target): multiplicative decrease —
//     admission factor ×= sloDecrease, floored at sloFloor. Hard
//     braking, because queueing latency compounds while over target.
//   - healthy (observed p99 ≤ sloHealthyBand × target) for
//     sloHealthyStreak consecutive epochs: additive increase — factor
//     += sloIncrease, capped at 1. Slow, monotone recovery.
//   - in between (the hysteresis band): hold. The dead zone between
//     "brake" and "accelerate" is what keeps the controller from
//     oscillating around the target.
//
// The factor scales both the token-bucket refill and the priority-depth
// limit, so a throttled tenant is shed at admission (reported as
// ShedSLO) rather than queued into a latency it cannot meet. Epochs
// with too few samples count as healthy: a fully-throttled tenant emits
// almost no traffic, and without this rule its factor could never
// climb back.
const (
	sloEpoch         = 1024 // governor evaluation period, cycles
	sloMinSamples    = 8    // completions needed for a meaningful p99
	sloFloor         = 1.0 / 64
	sloDecrease      = 0.7
	sloIncrease      = 0.05
	sloHealthyBand   = 0.8 // fraction of target below which an epoch is "healthy"
	sloHealthyStreak = 2   // healthy epochs required before each increase
)

// recordSLO books one resolved governed request into the tenant's and
// the fleet's SLO ledgers. met is true when the request completed
// within its tenant's budget; failures (deadline, trap) are recorded as
// misses — an unserved request did not meet its SLO.
func (s *Service) recordSLO(t *tenantState, met bool) {
	if t.slo == 0 {
		return
	}
	t.sloMeasured++
	s.sloEpochTotal[t.prio]++
	if met {
		t.sloMet++
		s.sloEpochMet[t.prio]++
	}
}

// govern runs the SLO feedback controller. Called every cycle from the
// serve tick; acts only on epoch boundaries.
func (s *Service) govern(c uint64) {
	if !s.sloAny || c == 0 || c%sloEpoch != 0 {
		return
	}

	// Flush the per-priority attainment series (-1 marks an epoch with
	// no governed traffic at that priority, so plots can gap it).
	for p := 0; p < len(s.sloSeries); p++ {
		if !s.sloGoverned[p] {
			continue
		}
		att := -1.0
		if s.sloEpochTotal[p] > 0 {
			att = float64(s.sloEpochMet[p]) / float64(s.sloEpochTotal[p])
		}
		s.sloSeries[p] = append(s.sloSeries[p], att)
		s.sloEpochMet[p], s.sloEpochTotal[p] = 0, 0
	}

	// Per-tenant AIMD step.
	for ti := range s.tenants {
		t := &s.tenants[ti]
		if t.slo == 0 {
			continue
		}
		if t.epochN < sloMinSamples {
			// Idle or fully throttled: count as healthy so recovery is
			// reachable from the floor.
			s.sloRelax(t)
		} else {
			p99 := t.epochLat.Percentile(0.99)
			if p99 > t.epochMax {
				p99 = t.epochMax // bucket-top bound clamped to observed max
			}
			switch {
			case float64(p99) > float64(t.slo):
				t.sloFactor *= sloDecrease
				if t.sloFactor < sloFloor {
					t.sloFactor = sloFloor
				}
				t.healthyStreak = 0
				t.sloThrottles++
			case float64(p99) <= sloHealthyBand*float64(t.slo):
				s.sloRelax(t)
			default:
				// Hysteresis band: hold the factor, restart the streak.
				t.healthyStreak = 0
			}
		}
		t.epochLat = stats.Histogram{}
		t.epochN, t.epochMax = 0, 0
	}
}

// sloRelax is the additive-increase half of the controller: one healthy
// epoch observed; raise the factor only after a full streak of them.
func (s *Service) sloRelax(t *tenantState) {
	t.healthyStreak++
	if t.healthyStreak < sloHealthyStreak || t.sloFactor >= 1 {
		return
	}
	t.sloFactor += sloIncrease
	if t.sloFactor > 1 {
		t.sloFactor = 1
	}
}

// depthLimit is the tenant's priority-scaled ingress depth threshold,
// shrunk by the SLO factor: priority p (0 lowest, 7 highest) is admitted
// only while the queue is below factor×(p+1)/8 of its depth, so the
// lowest priorities shed first as it grows and a throttled tenant sheds
// earlier still. Never below 1 — an admitted tenant can always make
// progress into an empty queue.
func (t *tenantState) depthLimit(ingressDepth int) int {
	limit := int(float64((t.prio+1)*ingressDepth) / 8 * t.sloFactor)
	if limit < 1 {
		limit = 1
	}
	return limit
}
