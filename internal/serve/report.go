package serve

import "xcache/internal/stats"

// Report is the run summary xcache-serve emits as JSON. Every field is
// deterministic given (Config, Seed): the determinism and chaos tests
// byte-compare marshalled Reports against each other and against
// testdata goldens, so nothing wall-clock-dependent may appear here.
type Report struct {
	Config   ReportConfig    `json:"config"`
	Cycles   uint64          `json:"cycles"`
	Totals   Totals          `json:"totals"`
	Latency  Latency         `json:"latency"`
	Tenants  []TenantReport  `json:"tenants"`
	Shards   []ShardReport   `json:"shards"`
	DRAM     DRAMReport      `json:"dram"`
	SLO      *SLOReport      `json:"slo,omitempty"`
	Degraded *DegradedReport `json:"degraded,omitempty"`
	Faults   *FaultReport    `json:"faults,omitempty"`
}

// ReportConfig echoes the run parameters that shape the results.
type ReportConfig struct {
	Shards        int     `json:"shards"`
	Channels      int     `json:"channels"`
	ChannelPolicy string  `json:"channel_policy"`
	Tenants       string  `json:"tenants"` // canonical spec string
	TenantCount   int     `json:"tenant_count"`
	Keys          int     `json:"keys"`
	Duration      int     `json:"duration"`
	Seed          uint64  `json:"seed"`
	Overload      float64 `json:"overload"`
	IngressDepth  int     `json:"ingress_depth"`
	Deadline      int     `json:"deadline"`
	Timeout       int     `json:"timeout"`
	Retries       int     `json:"retries"`
	Backoff       int     `json:"backoff"`
	SLOEpoch      int     `json:"slo_epoch"`
}

// Totals is the service-wide ledger. Conservation holds exactly:
// generated == completed + shed + failed (pending is zero at report time).
type Totals struct {
	Generated uint64 `json:"generated"`
	Completed uint64 `json:"completed"`
	Shed      uint64 `json:"shed"`
	Failed    uint64 `json:"failed"`
	Retries   uint64 `json:"retries"`

	// ThroughputKcycle is completed requests per thousand cycles.
	ThroughputKcycle float64 `json:"throughput_kcycle"`
	// ShedRate is shed / generated (0 when nothing was generated).
	ShedRate float64 `json:"shed_rate"`
}

// Latency summarises admission-to-completion latency in cycles. The
// percentiles are histogram-bucket upper bounds clamped to the observed
// maximum, so a single sample (or an all-equal window) reports every
// percentile at exactly that value, and no percentile ever exceeds Max.
type Latency struct {
	P50  uint64  `json:"p50"`
	P99  uint64  `json:"p99"`
	P999 uint64  `json:"p999"`
	Max  uint64  `json:"max"`
	Mean float64 `json:"mean"`
}

// TenantReport is one tenant's ledger and service quality.
type TenantReport struct {
	Tenant   int     `json:"tenant"`
	Group    int     `json:"group"`
	Priority int     `json:"priority"`
	Rate     float64 `json:"rate"`

	Generated      uint64 `json:"generated"`
	Completed      uint64 `json:"completed"`
	NotFound       uint64 `json:"not_found"`
	ShedRate       uint64 `json:"shed_rate_limit"`
	ShedQueue      uint64 `json:"shed_queue"`
	ShedBreaker    uint64 `json:"shed_breaker"`
	ShedSLO        uint64 `json:"shed_slo"`
	FailedDeadline uint64 `json:"failed_deadline"`
	FailedTrap     uint64 `json:"failed_trap"`
	Retries        uint64 `json:"retries"`

	Latency          Latency    `json:"latency"`
	ThroughputKcycle float64    `json:"throughput_kcycle"`
	SLO              *TenantSLO `json:"slo,omitempty"`
}

// TenantSLO is a governed tenant's latency-budget scorecard (present
// only when the tenant's group declared an SLO).
type TenantSLO struct {
	Target    uint64  `json:"target"` // p99 budget, cycles
	Factor    float64 `json:"factor"` // final admission factor, in [1/64, 1]
	Throttles uint64  `json:"throttles"`
	Met       uint64  `json:"met"`
	Measured  uint64  `json:"measured"` // completions + failures
	// Attainment is met/measured: the fraction of governed outcomes
	// (failures count as misses) inside the budget.
	Attainment float64 `json:"attainment"`
}

// SLOReport is the fleet SLO scorecard: attainment per priority level
// with an SLO, cumulative and as a per-epoch series (for convergence
// and recovery plots). -1 in the series marks an epoch with no governed
// traffic at that priority.
type SLOReport struct {
	Epoch      int           `json:"epoch_cycles"`
	Attainment []SLOPriority `json:"attainment"`
}

// SLOPriority is one priority level's SLO attainment.
type SLOPriority struct {
	Priority   int       `json:"priority"`
	Met        uint64    `json:"met"`
	Measured   uint64    `json:"measured"`
	Attainment float64   `json:"attainment"`
	Series     []float64 `json:"series"`
}

// ShardReport is one shard's traffic, backpressure and breaker history.
type ShardReport struct {
	Shard     int    `json:"shard"`
	Forwarded uint64 `json:"forwarded"`
	Timeouts  uint64 `json:"timeouts"`
	BPCycles  uint64 `json:"backpressure_cycles"`

	BreakerState      string `json:"breaker_state"`
	BreakerTrips      uint64 `json:"breaker_trips"`
	BreakerOpenCycles uint64 `json:"breaker_open_cycles"`

	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Traps         uint64 `json:"traps"`
	StallCycles   uint64 `json:"stall_cycles"`
	FillRetries   uint64 `json:"fill_retries"`
	SpuriousFills uint64 `json:"spurious_fills"`
	ParityScrubs  uint64 `json:"parity_scrubs"`
}

// DRAMReport is the memory subsystem's pressure summary: totals across
// every channel (PeakPending is the max over channels, the rest are
// sums) plus the per-channel breakdown.
type DRAMReport struct {
	Reads       uint64 `json:"reads"`
	Writes      uint64 `json:"writes"`
	RowHits     uint64 `json:"row_hits"`
	RowMisses   uint64 `json:"row_misses"`
	BusBusy     uint64 `json:"bus_busy"`
	PeakPending int    `json:"peak_pending"`

	Channels []ChannelReport `json:"channels"`
}

// ChannelReport is one DRAM channel's traffic, utilization and failover
// history.
type ChannelReport struct {
	Channel int    `json:"channel"`
	State   string `json:"state"` // health at end of run

	Reads     uint64 `json:"reads"`
	Writes    uint64 `json:"writes"`
	RowHits   uint64 `json:"row_hits"`
	RowMisses uint64 `json:"row_misses"`
	BusBusy   uint64 `json:"bus_busy"`
	// Utilization is BusBusy / run cycles: the fraction of the run this
	// channel's data bus was transferring.
	Utilization float64 `json:"utilization"`
	PeakPending int     `json:"peak_pending"`

	Forwarded         uint64 `json:"forwarded"`
	Returned          uint64 `json:"returned"`
	Resteered         uint64 `json:"resteered"` // natively-owned requests steered elsewhere
	Quarantines       uint64 `json:"quarantines"`
	QuarantinedCycles uint64 `json:"quarantined_cycles"`

	OutageCycles uint64 `json:"outage_cycles"`
	StallCycles  uint64 `json:"stall_cycles"`
	BurstDelays  uint64 `json:"burst_delays"`
}

// DegradedReport summarises channel failover activity (present only
// when at least one channel was quarantined during the run). Errors
// holds the text of the *DegradedError records, in quarantine order.
type DegradedReport struct {
	DegradedCycles uint64   `json:"degraded_cycles"` // cycles with ≥1 unhealthy channel
	Resteered      uint64   `json:"resteered"`
	Quarantines    uint64   `json:"quarantines"`
	EndedDegraded  bool     `json:"ended_degraded"` // a channel was still unhealthy at exit
	Errors         []string `json:"errors"`
}

// FaultReport counts the chaos actually injected (present only when
// fault injection was configured).
type FaultReport struct {
	Drops      uint64 `json:"drops"`
	Delays     uint64 `json:"delays"`
	Clogs      uint64 `json:"clogs"`
	Flips      uint64 `json:"flips"`
	ChanFaults uint64 `json:"chan_faults"`
}

// latencyOf folds a histogram into the Latency summary. Percentiles are
// the histogram's bucket-top upper bounds clamped to the observed max:
// the clamp pins the degenerate windows (single sample, all-equal
// samples) to the exact value instead of a power-of-two overestimate,
// and keeps every percentile ≤ Max. An empty window is all zeros.
func latencyOf(h *stats.Histogram, sum, max, n uint64) Latency {
	l := Latency{Max: max}
	if n == 0 {
		return l
	}
	clamp := func(v uint64) uint64 {
		if v > max {
			return max
		}
		return v
	}
	l.P50 = clamp(h.Percentile(0.50))
	l.P99 = clamp(h.Percentile(0.99))
	l.P999 = clamp(h.Percentile(0.999))
	l.Mean = float64(sum) / float64(n)
	return l
}

func (s *Service) report() *Report {
	cycles := uint64(s.K.Cycle())
	r := &Report{
		Config: ReportConfig{
			Shards: s.Cfg.Shards, Channels: s.Cfg.Channels,
			ChannelPolicy: s.Cfg.ChannelPolicy.String(),
			Tenants:       FormatTenantSpec(s.Cfg.Tenants),
			TenantCount:   len(s.tenants), Keys: s.Cfg.Keys,
			Duration: s.Cfg.Duration, Seed: s.Cfg.Seed, Overload: s.Cfg.Overload,
			IngressDepth: s.Cfg.IngressDepth, Deadline: s.Cfg.Deadline,
			Timeout: s.Cfg.Timeout, Retries: s.Cfg.Retries, Backoff: retryBackoff,
			SLOEpoch: sloEpoch,
		},
		Cycles: cycles,
	}

	var all stats.Histogram
	var allSum, allMax, allCompleted uint64
	kcycles := float64(cycles) / 1000
	for ti := range s.tenants {
		t := &s.tenants[ti]
		tr := TenantReport{
			Tenant: ti, Group: t.group, Priority: t.prio, Rate: t.rate,
			Generated: t.generated, Completed: t.completed, NotFound: t.notFound,
			ShedRate: t.shedRate, ShedQueue: t.shedQueue, ShedBreaker: t.shedBreaker,
			ShedSLO:        t.shedSLO,
			FailedDeadline: t.failedDeadline, FailedTrap: t.failedTrap,
			Retries: t.retries,
			Latency: latencyOf(&t.lat, t.latSum, t.latMax, t.completed-t.notFound),
		}
		if kcycles > 0 {
			tr.ThroughputKcycle = float64(t.completed) / kcycles
		}
		if t.slo > 0 {
			ts := &TenantSLO{
				Target: t.slo, Factor: t.sloFactor, Throttles: t.sloThrottles,
				Met: t.sloMet, Measured: t.sloMeasured,
			}
			if ts.Measured > 0 {
				ts.Attainment = float64(ts.Met) / float64(ts.Measured)
			}
			tr.SLO = ts
		}
		r.Tenants = append(r.Tenants, tr)
		all.Merge(&t.lat)
		allSum += t.latSum
		if t.latMax > allMax {
			allMax = t.latMax
		}
		allCompleted += t.completed - t.notFound
	}
	r.Latency = latencyOf(&all, allSum, allMax, allCompleted)
	r.Totals = Totals{
		Generated: s.accepted, Completed: s.completed, Shed: s.shed,
		Failed: s.failed, Retries: s.reissues,
	}
	if kcycles > 0 {
		r.Totals.ThroughputKcycle = float64(s.completed) / kcycles
	}
	if s.accepted > 0 {
		r.Totals.ShedRate = float64(s.shed) / float64(s.accepted)
	}

	if s.sloAny {
		sr := &SLOReport{Epoch: sloEpoch}
		for p := 0; p < len(s.sloGoverned); p++ {
			if !s.sloGoverned[p] {
				continue
			}
			sp := SLOPriority{Priority: p, Series: s.sloSeries[p]}
			for ti := range s.tenants {
				if t := &s.tenants[ti]; t.prio == p && t.slo > 0 {
					sp.Met += t.sloMet
					sp.Measured += t.sloMeasured
				}
			}
			if sp.Measured > 0 {
				sp.Attainment = float64(sp.Met) / float64(sp.Measured)
			}
			sr.Attainment = append(sr.Attainment, sp)
		}
		r.SLO = sr
	}

	for _, sh := range s.shards {
		cs := sh.cache.Ctrl.Stats()
		r.Shards = append(r.Shards, ShardReport{
			Shard: sh.idx, Forwarded: sh.forwarded, Timeouts: sh.timeouts,
			BPCycles:     sh.bpCycles,
			BreakerState: sh.br.state.String(), BreakerTrips: sh.br.trips,
			BreakerOpenCycles: sh.br.openCycles,
			Hits:              cs.Hits, Misses: cs.Misses, Traps: cs.Traps,
			StallCycles: cs.StallCycles, FillRetries: cs.FillRetries,
			SpuriousFills: cs.SpuriousFills, ParityScrubs: cs.ParityScrubs,
		})
	}

	for ci, ch := range s.mux.chans {
		ds := ch.d.Stats()
		cr := ChannelReport{
			Channel: ci, State: ch.health.String(),
			Reads: ds.Reads, Writes: ds.Writes, RowHits: ds.RowHits,
			RowMisses: ds.RowMisses, BusBusy: ds.BusBusy, PeakPending: ds.PeakPending,
			Forwarded: ch.forwarded, Returned: ch.returned, Resteered: ch.resteeredAway,
			Quarantines: ch.quarantines, QuarantinedCycles: ch.quarantinedCycles,
			OutageCycles: ds.OutageCycles, StallCycles: ds.StallCycles,
			BurstDelays: ds.BurstDelays,
		}
		if cycles > 0 {
			cr.Utilization = float64(ds.BusBusy) / float64(cycles)
		}
		r.DRAM.Channels = append(r.DRAM.Channels, cr)
		r.DRAM.Reads += ds.Reads
		r.DRAM.Writes += ds.Writes
		r.DRAM.RowHits += ds.RowHits
		r.DRAM.RowMisses += ds.RowMisses
		r.DRAM.BusBusy += ds.BusBusy
		if ds.PeakPending > r.DRAM.PeakPending {
			r.DRAM.PeakPending = ds.PeakPending
		}
	}

	var quarantines uint64
	for _, ch := range s.mux.chans {
		quarantines += ch.quarantines
	}
	if quarantines > 0 {
		dr := &DegradedReport{
			DegradedCycles: s.mux.degradedCycles, Resteered: s.mux.resteered,
			Quarantines: quarantines, EndedDegraded: s.mux.degraded(),
		}
		for _, e := range s.mux.errs {
			dr.Errors = append(dr.Errors, e.Error())
		}
		r.Degraded = dr
	}

	if s.inj != nil {
		r.Faults = &FaultReport{
			Drops: s.inj.Drops, Delays: s.inj.Delays,
			Clogs: s.inj.Clogs, Flips: s.inj.Flips,
			ChanFaults: s.inj.ChanFaults,
		}
	}
	return r
}
