// Package serve is the multi-tenant service layer over the X-Cache
// model: N controller shards over one shared banked DRAM channel, fed by
// per-tenant synthetic open-loop request streams (tenant count, key
// skew and burstiness are all parameters), with the robustness stack the
// paper's shared-resource positioning implies:
//
//   - bounded per-shard ingress queues with explicit backpressure
//     (forwarding stops on a full controller queue; admission sheds
//     beyond priority-scaled depth thresholds),
//   - admission control: per-tenant token buckets plus queue-depth load
//     shedding, every rejection counted per tenant by its reason
//     (breaker, SLO, rate or queue),
//   - per-request deadlines with budgeted timeout/retry/backoff: a
//     timed-out attempt retries, a trap casualty does not,
//   - a per-shard circuit breaker that trips on sustained trap/timeout
//     rates and drains through the existing ctrl.Trap quiesce path,
//   - graceful degradation: the lowest-priority tenants shed first, and
//     the shared DRAM state is pinned by an exact-value oracle plus the
//     internal/check invariant checkers running inside the serve loop.
//
// Determinism is load-bearing: every arrival, key choice and fault is a
// stateless hash of (seed, stream, cycle, salt), so a run — including a
// full chaos soak — replays byte-for-byte from its seed.
package serve

import (
	"container/heap"
	"fmt"

	"xcache/internal/check"
	"xcache/internal/core"
	"xcache/internal/ctrl"
	"xcache/internal/dram"
	"xcache/internal/energy"
	"xcache/internal/mem"
	"xcache/internal/metatag"
	"xcache/internal/program"
	"xcache/internal/sim"
	"xcache/internal/stats"
)

// attemptBits is how many low bits of a controller request id carry the
// attempt number (the rest carry the request id), letting late responses
// from timed-out attempts be matched — and deduplicated — exactly
// (request-ID layout: DESIGN.md §9).
const attemptBits = 3

// maxRetries is the largest per-request retry budget the attempt field
// can encode.
const maxRetries = (1 << attemptBits) - 2

// retryBackoff is the base retry backoff in cycles; it doubles per
// attempt.
const retryBackoff = 64

// Config parameterises a Service. The zero value of every field selects
// a sensible default (see defaults()).
type Config struct {
	Shards   int           // controller shards (default 4, max 1024)
	Tenants  []TenantGroup // tenant mix (default: 8 tenants @ rate 0.01)
	Keys     int           // shared key-space size (default 1<<16)
	Duration int           // arrival window, cycles (default 50_000)
	// MaxCycles bounds the whole run including drain (default 4×Duration).
	MaxCycles int
	Seed      uint64
	// Overload multiplies every tenant's *offered* arrival rate without
	// touching the admitted (token-bucket) rates: 2.0 is the canonical
	// "2× overload" experiment. Default 1.
	Overload float64

	Spec program.Spec // walker program (default: array-walk)
	DRAM dram.Config  // per-channel geometry/timing (default dram.DefaultConfig)

	// Channels is the number of independent DRAM channels behind the mux
	// (default 1, max 64). Each channel is a full dram.DRAM with its own
	// banks, queues and data bus over the shared image.
	Channels int
	// ChannelPolicy steers requests across healthy channels:
	// PolicyInterleave (default, row-granular address interleave) or
	// PolicyAffine (shard mod Channels).
	ChannelPolicy ChannelPolicy

	IngressDepth int     // per-shard ingress queue depth (default 64)
	ForwardPer   int     // max ingress→controller forwards per shard per cycle (default 8)
	BucketRate   float64 // token-bucket refill per tenant per cycle (0 → 1.25× the group rate)
	BucketBurst  float64 // token-bucket capacity (default 8)
	Deadline     int     // per-request lifetime, cycles (default 8192)
	Timeout      int     // per-attempt timeout, cycles (default 2048)
	Retries      int     // extra attempts after the first (default 2, max 6)

	Breaker  BreakerConfig
	Watchdog int               // stall window (default 50_000; must exceed Deadline)
	Faults   check.FaultConfig // chaos injection (zero value = none)

	// Deprecated: TickWorkers has no effect; one goroutine ticks every
	// shard.
	TickWorkers int

	// Expect is the response oracle: the value every OK response for key
	// must carry, and whether the key exists at all. The default oracle
	// says every key is present with the seeded array value — which is
	// exactly what makes "never corrupt shared DRAM state" checkable: any
	// OK response with the wrong value is a fatal invariant violation,
	// and any NotFound for a present key is a counted trap casualty.
	Expect func(key uint64) (value uint64, present bool)
}

func (c *Config) defaults() error {
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.Shards < 1 || c.Shards > 1024 {
		return fmt.Errorf("serve: Shards %d outside [1, 1024]", c.Shards)
	}
	if len(c.Tenants) == 0 {
		c.Tenants = []TenantGroup{{Count: 8, Rate: 0.01}}
	}
	for i, g := range c.Tenants {
		if err := g.validate(); err != nil {
			return fmt.Errorf("serve: tenant group %d: %w", i, err)
		}
	}
	if c.Keys == 0 {
		c.Keys = 1 << 16
	}
	if c.Keys < 1 || c.Keys > 1<<26 {
		return fmt.Errorf("serve: Keys %d outside [1, 1<<26]", c.Keys)
	}
	if c.Duration == 0 {
		c.Duration = 50_000
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 4 * c.Duration
	}
	if c.Overload == 0 {
		c.Overload = 1
	}
	if c.Overload < 0 {
		return fmt.Errorf("serve: Overload %v negative", c.Overload)
	}
	if len(c.Spec.Transitions) == 0 {
		c.Spec = ArraySpec()
	}
	if c.DRAM.Banks == 0 {
		c.DRAM = dram.DefaultConfig()
	}
	if c.Channels == 0 {
		c.Channels = 1
	}
	if c.Channels < 1 || c.Channels > 64 {
		return fmt.Errorf("serve: Channels %d outside [1, 64]", c.Channels)
	}
	for i, f := range c.Faults.Channels {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("serve: channel fault %d: %w", i, err)
		}
		if f.Channel >= c.Channels {
			return fmt.Errorf("serve: channel fault %d targets channel %d of %d", i, f.Channel, c.Channels)
		}
	}
	if c.IngressDepth == 0 {
		c.IngressDepth = 64
	}
	if c.ForwardPer == 0 {
		c.ForwardPer = 8
	}
	if c.BucketBurst == 0 {
		c.BucketBurst = 8
	}
	if c.Deadline == 0 {
		c.Deadline = 8192
	}
	if c.Timeout == 0 {
		c.Timeout = 2048
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Retries < 0 || c.Retries > maxRetries {
		return fmt.Errorf("serve: Retries %d outside [0, %d]", c.Retries, maxRetries)
	}
	if c.Watchdog == 0 {
		c.Watchdog = 50_000
	}
	if c.Watchdog > 0 && c.Watchdog <= c.Deadline {
		// A request parked in ingress behind an open breaker makes no
		// queue progress until its deadline; the watchdog window must
		// out-wait that or healthy sheds read as stalls.
		return fmt.Errorf("serve: Watchdog %d must exceed Deadline %d", c.Watchdog, c.Deadline)
	}
	return nil
}

// shardConfig is the per-shard cache geometry: a Widx-like design point
// scaled to service duty (more walkers than the paper's per-DSA configs,
// small response payloads).
func shardConfig() core.Config {
	return core.Config{
		Sets: 256, Ways: 4, WordsPerSector: 4,
		NumActive: 16, NumExe: 4, RespDataWords: 2,
		MetaQueueDepth: 32, RespQueueDepth: 64,
	}
}

// ArraySpec is the default walker: array[key] lookup against the shared
// image (e0 = array base), the minimal single-fill program so service
// behavior is dominated by the robustness stack, not the walk.
func ArraySpec() program.Spec {
	return program.Spec{
		Name:   "servewalk",
		States: []string{"WaitFill"},
		Transitions: []program.Transition{
			{State: "Default", Event: "MetaLoad", Asm: `
				allocm
				lde r4, e0
				shl r5, r1, 3
				add r5, r4, r5
				enqfilli r5, 1
				state WaitFill
			`},
			{State: "WaitFill", Event: "Fill", Asm: `
				peek r6, 0
				allocdi r7, 1
				writed r7, r6
				li r8, 1
				update r7, r8
				enqresp r6, OK
				halt Valid
			`},
		},
	}
}

// reqState tracks one accepted request from admission to resolution.
type reqState struct {
	id       uint64
	tenant   int32
	shard    int32
	attempt  uint8 // current attempt number (0-based)
	probe    bool  // half-open breaker probe
	key      uint64
	gen      sim.Cycle // admission cycle
	deadline sim.Cycle
}

// inflightRec is a shard's record of one forwarded attempt, scanned in
// forward order for timeouts (resolved entries are skipped lazily).
type inflightRec struct {
	id      uint64
	attempt uint8
	at      sim.Cycle
}

type shardState struct {
	idx     int
	cache   *core.Cache
	ingress *sim.Queue[uint64]
	br      breaker

	inflight []inflightRec
	head     int

	forwarded uint64
	timeouts  uint64
	bpCycles  uint64 // cycles forwarding stopped on a full controller queue
	lastTraps uint64 // last observed ctrl.Stats().Traps (for deltas)
}

type tenantState struct {
	group    int
	prio     int
	rate     float64
	keys     zipf
	burstLen int
	burstOn  float64
	phase    uint64 // burst phase offset (hash of tenant index)

	tokens     float64
	bucketRate float64

	// Conservation counters: generated == completed + shed* + failed*.
	generated      uint64
	completed      uint64
	shedRate       uint64
	shedQueue      uint64
	shedBreaker    uint64
	shedSLO        uint64
	failedDeadline uint64
	failedTrap     uint64
	retries        uint64
	notFound       uint64 // genuine absent-key answers (still completions)

	lat    stats.Histogram
	latSum uint64
	latMax uint64

	// SLO governor state (zero-valued and inert when slo == 0).
	slo           uint64  // p99 budget in cycles
	sloFactor     float64 // admission scale in [sloFloor, 1]
	healthyStreak int     // consecutive healthy epochs
	sloThrottles  uint64  // multiplicative-decrease steps taken
	sloMet        uint64  // measured requests within budget (lifetime)
	sloMeasured   uint64  // measured requests (completions + failures)
	epochLat      stats.Histogram
	epochN        uint64
	epochMax      uint64
}

// retryEntry schedules re-issue of a timed-out request.
type retryEntry struct {
	due     sim.Cycle
	id      uint64
	attempt uint8
}

type retryHeap []retryEntry

func (h retryHeap) Len() int { return len(h) }
func (h retryHeap) Less(i, j int) bool {
	if h[i].due != h[j].due {
		return h[i].due < h[j].due
	}
	return h[i].id < h[j].id
}
func (h retryHeap) Swap(i, j int)    { h[i], h[j] = h[j], h[i] }
func (h *retryHeap) Push(x any)      { *h = append(*h, x.(retryEntry)) }
func (h *retryHeap) Pop() any        { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h retryHeap) peek() retryEntry { return h[0] }

// Service is the sharded multi-tenant front end. Build one with New,
// drive it with Run.
type Service struct {
	Cfg Config
	K   *sim.Kernel

	img     *mem.Image
	base    uint64
	chans   []*dram.DRAM
	mux     *dramMux
	shards  []*shardState
	tenants []tenantState
	h       *check.Harness
	inj     *check.Injector

	// SLO governor fleet state, indexed by priority.
	sloAny        bool
	sloGoverned   [8]bool
	sloEpochMet   [8]uint64
	sloEpochTotal [8]uint64
	sloSeries     [8][]float64

	reqs    map[uint64]*reqState
	nextID  uint64
	pending uint64
	retries retryHeap
	fatal   error

	accepted  uint64
	completed uint64
	shed      uint64
	failed    uint64
	reissues  uint64
}

// saltedQueue decorates a queue's diagnostic name so the fault
// injector's clog stream decorrelates across shards (every shard's
// controller queues share the same base names).
type saltedQueue struct {
	sim.Clogger
	salt string
}

func (s saltedQueue) Name() string { return s.salt }

// New assembles the service: shared image + DRAM, per-shard caches
// behind the channel mux, tenant streams, the supervision harness, and
// (when configured) the chaos injector.
func New(cfg Config) (*Service, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	img := mem.NewImage()
	s := &Service{Cfg: cfg, K: k, img: img, reqs: make(map[uint64]*reqState)}

	// Seeded array contents: the oracle for every OK response.
	s.base = img.AllocWords(cfg.Keys)
	for i := 0; i < cfg.Keys; i++ {
		img.W64(s.base+uint64(i)*8, s.valueOf(uint64(i)))
	}
	if s.Cfg.Expect == nil {
		s.Cfg.Expect = func(key uint64) (uint64, bool) { return s.valueOf(key), true }
	}

	// M independent channels over the shared image. A single channel
	// keeps the historical "dram" queue names (byte-compatible reports);
	// multi-channel runs name each channel so diagnostics and the
	// injector's per-queue clog streams stay distinguishable.
	for i := 0; i < cfg.Channels; i++ {
		dcfg := cfg.DRAM
		if cfg.Channels > 1 {
			dcfg.Name = fmt.Sprintf("dram%d", i)
		}
		s.chans = append(s.chans, dram.New(k, dcfg, img))
	}

	memReqs := make([]*sim.Queue[dram.Request], cfg.Shards)
	memResps := make([]*sim.Queue[dram.Response], cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		memReqs[i] = sim.NewQueue[dram.Request](k, fmt.Sprintf("serve.mem%d.req", i), 64)
		memResps[i] = sim.NewQueue[dram.Response](k, fmt.Sprintf("serve.mem%d.resp", i), 64)
		shardCfg := shardConfig()
		shardCfg.Name = fmt.Sprintf("shard%d", i)
		cache, err := core.Build(k, shardCfg, cfg.Spec, memReqs[i], memResps[i], &energy.Counters{})
		if err != nil {
			return nil, fmt.Errorf("serve: shard %d: %w", i, err)
		}
		cache.SetEnv(0, s.base)
		sh := &shardState{idx: i, cache: cache, br: newBreaker(cfg.Breaker)}
		sh.ingress = sim.NewQueue[uint64](k, fmt.Sprintf("serve.ingress%d", i), cfg.IngressDepth)
		s.shards = append(s.shards, sh)
	}
	s.mux = newDRAMMux(k, s.chans, cfg.ChannelPolicy, memReqs, memResps)
	k.Add(s)

	// Supervision: watchdog + invariant checkers run inside the serve
	// loop. Faults are wired manually below — check.Attach's automatic
	// wiring cannot see through the channel mux.
	s.h = check.Attach(k, &check.Config{Watchdog: cfg.Watchdog, Invariants: true, Seed: cfg.Seed})

	if cfg.Faults.Any() {
		s.inj = check.NewInjector(cfg.Seed, cfg.Faults, k)
		for i, d := range s.chans {
			if cfg.Faults.DropResp > 0 || cfg.Faults.DelayResp > 0 {
				d.Faults = s.inj
			}
			if dis := s.inj.ChannelDisruptor(i); dis != nil {
				d.Disrupt = dis
			}
		}
		for i, sh := range s.shards {
			c := sh.cache.Ctrl
			if cfg.Faults.FillTimeout >= 0 {
				c.Cfg.FillTimeout = cfg.Faults.FillTimeout
				if c.Cfg.FillTimeout == 0 {
					c.Cfg.FillTimeout = 1024
				}
			}
			if cfg.Faults.FlipBit > 0 {
				c.Cfg.ParityCheck = true
				s.inj.WatchTags(c.Tags)
			}
			if cfg.Faults.ClogQueue > 0 {
				for _, q := range c.FaultQueues() {
					s.inj.Clog(saltedQueue{q, fmt.Sprintf("%s@shard%d", q.Name(), i)})
				}
			}
		}
		if cfg.Faults.ClogQueue > 0 {
			for _, d := range s.chans {
				s.inj.Clog(d.Resp)
			}
		}
		if cfg.Faults.FlipBit > 0 {
			k.Observe(s.inj)
		}
	}

	s.tenants = expandTenants(cfg)
	for i := range s.tenants {
		if t := &s.tenants[i]; t.slo > 0 {
			s.sloAny = true
			s.sloGoverned[t.prio] = true
		}
	}
	return s, nil
}

// expandTenants flattens the groups into per-tenant state.
func expandTenants(cfg Config) []tenantState {
	var out []tenantState
	for gi, g := range cfg.Tenants {
		bucketRate := cfg.BucketRate
		if bucketRate == 0 {
			bucketRate = g.Rate * 1.25
		}
		for i := 0; i < g.Count; i++ {
			ti := len(out)
			t := tenantState{
				group: gi, prio: g.Priority, rate: g.Rate, keys: newZipf(cfg.Keys, g.Skew),
				burstLen: g.BurstLen, burstOn: g.BurstOn,
				tokens: cfg.BucketBurst, bucketRate: bucketRate,
				slo: uint64(g.SLO), sloFactor: 1,
			}
			if g.BurstLen > 0 {
				t.phase = check.Mix64(cfg.Seed^uint64(ti)*0x9e3779b97f4a7c15^streamPhase) % uint64(g.BurstLen)
			}
			out = append(out, t)
		}
	}
	return out
}

// valueOf is the seeded content of array[key], the oracle every OK
// response is checked against.
func (s *Service) valueOf(key uint64) uint64 {
	return check.Mix64(key*0x9e3779b97f4a7c15 + 0xd1b54a32d192ed03)
}

func (s *Service) shardOf(key uint64) int {
	return int(check.Mix64(key+0x2545f4914f6cdd1d) % uint64(len(s.shards)))
}

// effRate is the tenant's offered arrival probability this cycle: the
// base rate, concentrated into the on-phase when bursting (the average
// over a period stays Rate).
func (t *tenantState) effRate(c sim.Cycle) float64 {
	if t.burstLen <= 0 {
		return t.rate
	}
	on := uint64(float64(t.burstLen) * t.burstOn)
	if on == 0 {
		on = 1
	}
	if (uint64(c)+t.phase)%uint64(t.burstLen) < on {
		return t.rate * float64(t.burstLen) / float64(on)
	}
	return 0
}

// Tick implements sim.Component: the whole service brain runs serially
// here, once per cycle — responses, breaker maintenance, arrivals +
// admission, forwarding under backpressure, retries, timeouts, and the
// conservation audit.
func (s *Service) Tick(c sim.Cycle) {
	s.drainResponses(c)
	s.govern(uint64(c))
	s.maintainBreakers(c)
	s.generate(c)
	s.forward(c)
	s.fireRetries(c)
	s.scanTimeouts(c)
	s.audit(c)
}

func (s *Service) drainResponses(c sim.Cycle) {
	for _, sh := range s.shards {
		for {
			r, ok := sh.cache.Ctrl.RespQ.Pop()
			if !ok {
				break
			}
			st := s.reqs[r.ID>>attemptBits]
			if st == nil {
				continue // late response of an attempt already resolved/failed
			}
			s.resolve(c, st, sh, r)
		}
	}
}

func (s *Service) resolve(c sim.Cycle, st *reqState, sh *shardState, r ctrl.MetaResp) {
	t := &s.tenants[st.tenant]
	if r.Status == program.StatusOK {
		if want, present := s.Cfg.Expect(st.key); !present || r.Value != want {
			s.fatalf("cycle %d: shard %d tenant %d key %d answered %#x, oracle says (%#x, present=%v): shared-state corruption",
				c, sh.idx, st.tenant, st.key, r.Value, want, present)
		}
		lat := uint64(c - st.gen)
		t.completed++
		t.lat.Add(lat)
		t.latSum += lat
		if lat > t.latMax {
			t.latMax = lat
		}
		if t.slo > 0 {
			t.epochLat.Add(lat)
			t.epochN++
			if lat > t.epochMax {
				t.epochMax = lat
			}
			s.recordSLO(t, lat <= t.slo)
		}
		s.completed++
		if st.probe {
			sh.br.probeSuccess()
		}
	} else if _, present := s.Cfg.Expect(st.key); present {
		// NotFound for a key the oracle holds: the walker was quiesced by
		// a trap mid-flight. A trap is a structural program fault and
		// deterministic, so no retry.
		t.failedTrap++
		s.recordSLO(t, false)
		s.failed++
		if st.probe {
			sh.br.probeFail(c)
		}
	} else {
		// A genuine miss is a served answer.
		t.notFound++
		t.completed++
		s.completed++
		if st.probe {
			sh.br.probeSuccess()
		}
	}
	delete(s.reqs, st.id)
	s.pending--
}

func (s *Service) maintainBreakers(c sim.Cycle) {
	for _, sh := range s.shards {
		if tr := sh.cache.Ctrl.TrapCount(); tr != sh.lastTraps {
			sh.br.recordTrap(int(tr-sh.lastTraps), c)
			sh.lastTraps = tr
		}
		ct := sh.cache.Ctrl
		if sh.br.maintain(c, ct.Idle) {
			// Drain complete: discard the latched trap so capture re-arms
			// for the half-open probes.
			ct.ClearTrap()
		}
	}
}

func (s *Service) generate(c sim.Cycle) {
	if int(c) >= s.Cfg.Duration {
		return
	}
	for ti := range s.tenants {
		t := &s.tenants[ti]
		// Token refill is unconditional — capacity contracted, not
		// offered — but scaled by the SLO governor's admission factor:
		// a tenant over its latency budget refills slower until it
		// recovers.
		if t.tokens += t.bucketRate * t.sloFactor; t.tokens > s.Cfg.BucketBurst {
			t.tokens = s.Cfg.BucketBurst
		}
		p := t.effRate(c) * s.Cfg.Overload
		if p <= 0 {
			continue
		}
		if p > 1 {
			p = 1
		}
		if check.Roll(s.Cfg.Seed, streamArrival, uint64(c), uint64(ti)) >= p {
			continue
		}
		key := t.keys.key(check.Roll(s.Cfg.Seed, streamKey, uint64(c), uint64(ti)))
		s.accept(c, ti, key)
	}
}

// accept runs one arrival through admission control and, if admitted,
// books it into the target shard's ingress queue.
func (s *Service) accept(c sim.Cycle, ti int, key uint64) {
	t := &s.tenants[ti]
	t.generated++
	s.accepted++
	shard := s.shardOf(key)
	sh := s.shards[shard]

	// A shed is counted under the first check that refuses it: breaker,
	// then bucket (SLO or rate), then queue depth.
	ok, probe := sh.br.admit()
	switch {
	case !ok:
		t.shedBreaker++
	case t.tokens < 1 && t.slo > 0 && t.sloFactor < 1:
		// An empty bucket under a throttled factor is the governor's
		// doing: the tenant is being shed to protect its latency
		// budget, not because it exceeded its contracted rate.
		t.shedSLO++
	case t.tokens < 1:
		t.shedRate++
	case sh.ingress.Len()+sh.ingress.StagedLen() >= t.depthLimit(s.Cfg.IngressDepth) || !sh.ingress.CanPush():
		// Priority-scaled depth threshold (shrunk further by the SLO
		// factor): lower priorities shed first as the queue grows.
		t.shedQueue++
	default:
		t.tokens--
		id := s.nextID
		s.nextID++
		s.reqs[id] = &reqState{
			id: id, tenant: int32(ti), shard: int32(shard), probe: probe,
			key: key, gen: c, deadline: c + sim.Cycle(s.Cfg.Deadline),
		}
		s.pending++
		sh.ingress.MustPush(id) // admission just verified CanPush
		return
	}
	s.shed++
}

func (s *Service) forward(c sim.Cycle) {
	for _, sh := range s.shards {
		if !sh.br.allowForward() {
			// Open breaker: the shard drains. Queued requests wait for
			// recovery, but expired heads must still fail (liveness).
			for {
				id, ok := sh.ingress.Peek()
				if !ok {
					break
				}
				st := s.reqs[id]
				if st == nil {
					sh.ingress.Pop()
					continue
				}
				if c <= st.deadline {
					break
				}
				sh.ingress.Pop()
				s.fail(c, st)
			}
			continue
		}
		for n := 0; n < s.Cfg.ForwardPer; {
			id, ok := sh.ingress.Peek()
			if !ok {
				break
			}
			st := s.reqs[id]
			if st == nil {
				sh.ingress.Pop()
				continue
			}
			if c > st.deadline {
				sh.ingress.Pop()
				s.fail(c, st)
				continue
			}
			if !sh.cache.Ctrl.ReqQ.CanPush() {
				sh.bpCycles++ // explicit backpressure: stop feeding this cycle
				break
			}
			sh.ingress.Pop()
			sh.cache.Ctrl.ReqQ.MustPush(ctrl.MetaReq{
				ID:  id<<attemptBits | uint64(st.attempt),
				Op:  ctrl.MetaLoad,
				Key: metatag.Key{st.key, 0}, Issued: c,
			})
			sh.inflight = append(sh.inflight, inflightRec{id: id, attempt: st.attempt, at: c})
			sh.forwarded++
			n++
		}
	}
}

func (s *Service) fireRetries(c sim.Cycle) {
	for len(s.retries) > 0 && s.retries.peek().due <= c {
		e := heap.Pop(&s.retries).(retryEntry)
		st := s.reqs[e.id]
		if st == nil || st.attempt != e.attempt {
			continue // resolved (or superseded) while waiting
		}
		if c > st.deadline {
			s.fail(c, st)
			continue
		}
		sh := s.shards[st.shard]
		if !sh.ingress.CanPush() {
			// Physically no room: hold the retry, bounded by the deadline.
			heap.Push(&s.retries, retryEntry{due: c + retryBackoff, id: e.id, attempt: e.attempt})
			continue
		}
		s.tenants[st.tenant].retries++
		s.reissues++
		sh.ingress.MustPush(e.id)
	}
}

func (s *Service) scanTimeouts(c sim.Cycle) {
	for _, sh := range s.shards {
		for sh.head < len(sh.inflight) {
			rec := sh.inflight[sh.head]
			if rec.at+sim.Cycle(s.Cfg.Timeout) > c {
				break
			}
			sh.head++
			st := s.reqs[rec.id]
			if st == nil || st.attempt != rec.attempt {
				continue // resolved, or already on a newer attempt
			}
			sh.timeouts++
			sh.br.recordTimeout(c)
			if st.probe {
				sh.br.probeFail(c)
			}
			// A timed-out attempt retries within the attempt budget and
			// the request deadline.
			if int(st.attempt) < s.Cfg.Retries {
				st.attempt++
				due := c + retryBackoff<<(st.attempt-1)
				if due <= st.deadline {
					heap.Push(&s.retries, retryEntry{due: due, id: rec.id, attempt: st.attempt})
					continue
				}
			}
			s.fail(c, st)
		}
		// Compact the lazily-scanned prefix so a long run stays O(live).
		if sh.head > 4096 && sh.head*2 > len(sh.inflight) {
			sh.inflight = append(sh.inflight[:0:0], sh.inflight[sh.head:]...)
			sh.head = 0
		}
	}
}

// fail retires a request whose deadline or retry budget ran out
// (failedDeadline); a trap casualty is retired where its response lands.
func (s *Service) fail(c sim.Cycle, st *reqState) {
	t := &s.tenants[st.tenant]
	t.failedDeadline++
	s.recordSLO(t, false)
	s.failed++
	if st.probe {
		s.shards[st.shard].br.probeFail(c)
	}
	delete(s.reqs, st.id)
	s.pending--
}

// audit is the in-loop conservation invariant: accepted = completed +
// shed + failed + pending, exactly, every cycle — and the pending count
// must equal the live request table.
func (s *Service) audit(c sim.Cycle) {
	if s.fatal != nil {
		return
	}
	if s.accepted != s.completed+s.shed+s.failed+s.pending {
		s.fatalf("cycle %d: conservation violated: accepted %d != completed %d + shed %d + failed %d + pending %d",
			c, s.accepted, s.completed, s.shed, s.failed, s.pending)
		return
	}
	if s.pending != uint64(len(s.reqs)) {
		s.fatalf("cycle %d: pending ledger %d != live requests %d", c, s.pending, len(s.reqs))
	}
}

func (s *Service) fatalf(format string, args ...any) {
	if s.fatal == nil {
		s.fatal = fmt.Errorf("serve: "+format, args...)
	}
}

// DiagnoseName implements check.Diagnoser.
func (s *Service) DiagnoseName() string { return "serve" }

// Diagnose implements check.Diagnoser: the service ledger and every
// shard's breaker state, for StallReports.
func (s *Service) Diagnose() []string {
	out := []string{fmt.Sprintf("accepted=%d completed=%d shed=%d failed=%d pending=%d retries=%d",
		s.accepted, s.completed, s.shed, s.failed, s.pending, s.reissues)}
	for _, sh := range s.shards {
		out = append(out, fmt.Sprintf("shard%d: breaker=%s trips=%d ingress=%d inflight=%d timeouts=%d",
			sh.idx, sh.br.state, sh.br.trips, sh.ingress.Len(), len(sh.inflight)-sh.head, sh.timeouts))
	}
	return out
}

// done: the arrival window has closed and every accepted request has
// been resolved (completed, shed, or failed).
func (s *Service) done() bool {
	return int(s.K.Cycle()) >= s.Cfg.Duration && s.pending == 0
}

// Run drives the service to completion under supervision and returns the
// report. On a fatal service failure — stall, invariant violation
// (including shared-state corruption caught by the oracle), queue
// overflow, or budget exhaustion — the error is a *check.Failure
// carrying the full StallReport.
func (s *Service) Run() (*Report, error) {
	for {
		if s.fatal != nil {
			return nil, s.h.Report(check.FailInvariant, s.fatal.Error()).Failure()
		}
		if err := s.h.Err(); err != nil {
			return nil, s.h.Report(check.FailInvariant, fmt.Sprintf("invariant violated: %v", err)).Failure()
		}
		if s.done() {
			if err := s.h.Audit(); err != nil {
				return nil, s.h.Report(check.FailInvariant, fmt.Sprintf("invariant violated: %v", err)).Failure()
			}
			return s.report(), nil
		}
		if int(s.K.Cycle()) >= s.Cfg.MaxCycles {
			return nil, s.h.Report(check.FailBudget,
				fmt.Sprintf("cycle budget (%d) exhausted with %d requests pending", s.Cfg.MaxCycles, s.pending)).Failure()
		}
		if err := s.h.Step(); err != nil {
			return nil, s.h.Report(check.FailOverflow, fmt.Sprintf("queue overflow: %v", err)).Failure()
		}
		if s.h.Stalled(s.K.Cycle()) {
			return nil, s.h.Report(check.FailStall,
				fmt.Sprintf("no forward progress for %d cycles", s.Cfg.Watchdog)).Failure()
		}
	}
}
