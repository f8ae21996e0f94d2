// Package hier implements the §6 compositions of X-Cache:
//
//   - MX  — multi-level X-Cache: an upstream L1 with no walker that
//     requests one meta-tag at a time from the downstream X-Cache; only
//     the last level walks and translates to addresses.
//   - MXA — X-Cache over an address-based cache: the walker's fills
//     become cache-line requests to a conventional cache (non-inclusive,
//     different namespaces).
//   - MXS — X-Cache beside a stream port: the DSA partitions its data,
//     streaming the affine part with global addresses (matrix A,
//     adjacency lists) while dynamic accesses go through X-Cache. The
//     SpGEMM and GraphPulse datapaths already use this shape; Stream is
//     the reusable port.
package hier

import (
	"fmt"

	"xcache/internal/addrcache"
	"xcache/internal/ctrl"
	"xcache/internal/dataram"
	"xcache/internal/dram"
	"xcache/internal/energy"
	"xcache/internal/metatag"
	"xcache/internal/program"
	"xcache/internal/sim"
)

// --- MX: upstream meta-tagged level with no walker. ---

// L1Config sizes the upstream level.
type L1Config struct {
	Sets           int
	Ways           int
	KeyWords       int
	WordsPerSector int
	Sectors        int // 0 → 2×Sets×Ways
	HitLatency     int // 0 → 2 (smaller/closer than the walking level)
	ReqDepth       int
	MaxOutstanding int
}

// ConfigError is the typed error an invalid hierarchy configuration
// builds to. It names the offending field so callers can surface the
// exact knob instead of a latent zero-capacity cache.
type ConfigError struct {
	Field  string
	Value  int
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("hier: L1Config.%s = %d: %s", e.Field, e.Value, e.Reason)
}

// Validate rejects geometries the defaulting pass would silently turn
// into a broken cache: sector sizing derives 2×Sets×Ways, so a zero or
// negative dimension yields a level that can never hold data, and the
// meta-tag array indexes sets by mask, so Sets must be a power of two.
func (c L1Config) Validate() error {
	if c.Sets <= 0 {
		return &ConfigError{Field: "Sets", Value: c.Sets, Reason: "must be positive"}
	}
	if c.Sets&(c.Sets-1) != 0 {
		return &ConfigError{Field: "Sets", Value: c.Sets, Reason: "must be a power of two"}
	}
	if c.Ways <= 0 {
		return &ConfigError{Field: "Ways", Value: c.Ways, Reason: "must be positive"}
	}
	if c.WordsPerSector <= 0 {
		return &ConfigError{Field: "WordsPerSector", Value: c.WordsPerSector, Reason: "must be positive"}
	}
	if c.Sectors < 0 {
		return &ConfigError{Field: "Sectors", Value: c.Sectors, Reason: "must be non-negative (0 derives 2×Sets×Ways)"}
	}
	if c.KeyWords < 0 || c.KeyWords > 2 {
		return &ConfigError{Field: "KeyWords", Value: c.KeyWords, Reason: "must be 0 (default 1), 1 or 2"}
	}
	if c.HitLatency < 0 {
		return &ConfigError{Field: "HitLatency", Value: c.HitLatency, Reason: "must be non-negative"}
	}
	if c.ReqDepth < 0 {
		return &ConfigError{Field: "ReqDepth", Value: c.ReqDepth, Reason: "must be non-negative"}
	}
	if c.MaxOutstanding < 0 {
		return &ConfigError{Field: "MaxOutstanding", Value: c.MaxOutstanding, Reason: "must be non-negative"}
	}
	return nil
}

func (c *L1Config) defaults() {
	if c.Sectors == 0 {
		c.Sectors = 2 * c.Sets * c.Ways
	}
	if c.HitLatency == 0 {
		c.HitLatency = 2
	}
	if c.ReqDepth == 0 {
		c.ReqDepth = 16
	}
	if c.MaxOutstanding == 0 {
		c.MaxOutstanding = 8
	}
	if c.KeyWords == 0 {
		c.KeyWords = 1
	}
}

// L1Stats counts upstream activity.
type L1Stats struct {
	Loads, Hits, Misses uint64
	Forwards            uint64
	Responses           uint64
	L2USum, L2UCount    uint64
}

// AvgLoadToUse returns the mean L1 load-to-use.
func (s L1Stats) AvgLoadToUse() float64 {
	if s.L2UCount == 0 {
		return 0
	}
	return float64(s.L2USum) / float64(s.L2UCount)
}

type l1mshr struct {
	waiters []ctrl.MetaReq
}

type l1pending struct {
	readyAt sim.Cycle
	resp    ctrl.MetaResp
	issued  sim.Cycle
}

// MetaL1 is the walker-less upstream X-Cache level: the meta-tag
// namespace is global across the hierarchy (like addresses), so it simply
// requests a meta-tag at a time from the downstream level on a miss.
// It caches read-only elements; meta stores are forwarded downstream.
type MetaL1 struct {
	Cfg   L1Config
	Tags  *metatag.Array
	Data  *dataram.RAM
	ReqQ  *sim.Queue[ctrl.MetaReq]
	RespQ *sim.Queue[ctrl.MetaResp]

	l2Req  *sim.Queue[ctrl.MetaReq]
	l2Resp *sim.Queue[ctrl.MetaResp]

	mshrs  map[metatag.Key]*l1mshr
	ids    map[uint64]metatag.Key // forwarded id → key
	nextID uint64
	pend   []l1pending
	stats  L1Stats
	Meter  *energy.Counters
}

// NewMetaL1 builds the upstream level over the downstream controller's
// queues. The geometry is validated before any array is sized; a typed
// *ConfigError names the offending field.
func NewMetaL1(k *sim.Kernel, cfg L1Config, l2 *ctrl.Controller, meter *energy.Counters) (*MetaL1, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.defaults()
	l := &MetaL1{
		Cfg:    cfg,
		Tags:   metatag.New(metatag.Config{Sets: cfg.Sets, Ways: cfg.Ways, KeyWords: cfg.KeyWords}, meter),
		Data:   dataram.New(dataram.Config{Sectors: cfg.Sectors, WordsPerSector: cfg.WordsPerSector}, meter),
		ReqQ:   sim.NewQueue[ctrl.MetaReq](k, "l1.req", cfg.ReqDepth),
		RespQ:  sim.NewQueue[ctrl.MetaResp](k, "l1.resp", 64),
		l2Req:  l2.ReqQ,
		l2Resp: l2.RespQ,
		mshrs:  map[metatag.Key]*l1mshr{},
		ids:    map[uint64]metatag.Key{},
		Meter:  meter,
	}
	k.Add(l)
	return l, nil
}

// Stats returns a copy of the statistics.
func (l *MetaL1) Stats() L1Stats { return l.stats }

// Idle reports whether no requests are queued or outstanding.
func (l *MetaL1) Idle() bool {
	return l.ReqQ.Len() == 0 && len(l.mshrs) == 0 && len(l.pend) == 0
}

// l1IDBit marks the ctrl.MetaReq IDs a MetaL1 forwards downstream
// (request-ID layout: DESIGN.md §9).
const l1IDBit = uint64(1) << 62

// Tick implements sim.Component.
func (l *MetaL1) Tick(cy sim.Cycle) {
	// Deliver matured hits.
	keep := l.pend[:0]
	for _, p := range l.pend {
		if p.readyAt <= cy && l.RespQ.CanPush() {
			l.RespQ.MustPush(p.resp)
			l.stats.Responses++
			l.stats.L2USum += uint64(cy - p.issued)
			l.stats.L2UCount++
			continue
		}
		keep = append(keep, p)
	}
	l.pend = keep

	// Downstream responses: fill and answer waiters.
	for {
		resp, ok := l.l2Resp.Peek()
		if !ok {
			break
		}
		key, mine := l.ids[resp.ID]
		if !mine {
			break // not ours (shouldn't happen when L1 owns the L2 port)
		}
		l.l2Resp.Pop()
		delete(l.ids, resp.ID)
		m := l.mshrs[key]
		delete(l.mshrs, key)
		if resp.Status == program.StatusOK && len(resp.Data) > 0 {
			l.install(key, resp.Data)
		}
		for _, w := range m.waiters {
			out := resp
			out.ID = w.ID
			l.pend = append(l.pend, l1pending{readyAt: cy + 1, resp: out, issued: w.Issued})
		}
	}

	// One lookup per cycle.
	req, ok := l.ReqQ.Peek()
	if !ok {
		return
	}
	if req.Op != ctrl.MetaLoad {
		// Stores bypass to the walking level (read-only upstream).
		if !l.l2Req.CanPush() {
			return
		}
		l.ReqQ.Pop()
		l.l2Req.MustPush(req)
		l.stats.Forwards++
		return
	}
	l.stats.Loads++
	if e := l.Tags.Lookup(req.Key); e != nil && e.State == program.StateValid {
		l.Tags.Touch(e)
		l.stats.Hits++
		words := int(e.SectorCount) * l.Data.Cfg.WordsPerSector
		resp := ctrl.MetaResp{ID: req.ID, Status: program.StatusOK, Words: words}
		if words > 0 {
			resp.Data = l.Data.ReadRun(e.SectorBase, words)
			resp.Value = resp.Data[0]
		}
		l.ReqQ.Pop()
		l.pend = append(l.pend, l1pending{readyAt: cy + sim.Cycle(l.Cfg.HitLatency), resp: resp, issued: req.Issued})
		return
	}
	l.stats.Misses++
	if m, exists := l.mshrs[req.Key]; exists {
		l.ReqQ.Pop()
		m.waiters = append(m.waiters, req)
		return
	}
	if len(l.mshrs) >= l.Cfg.MaxOutstanding || !l.l2Req.CanPush() {
		return
	}
	l.ReqQ.Pop()
	l.nextID++
	id := l1IDBit | l.nextID
	l.ids[id] = req.Key
	l.mshrs[req.Key] = &l1mshr{waiters: []ctrl.MetaReq{req}}
	fwd := req
	fwd.ID = id
	fwd.Issued = cy
	l.l2Req.MustPush(fwd)
	l.stats.Forwards++
}

// install caches a downstream element, evicting LRU entries for space.
func (l *MetaL1) install(key metatag.Key, words []uint64) {
	sectors := (len(words) + l.Data.Cfg.WordsPerSector - 1) / l.Data.Cfg.WordsPerSector
	if sectors == 0 {
		return
	}
	entry, ev, ok := l.Tags.Alloc(key, program.StateValid, metatag.NoWalker)
	if !ok {
		return // set full of... cannot happen: L1 entries are never transient
	}
	if ev != nil && ev.SectorCount > 0 {
		l.Data.Free(ev.SectorBase, ev.SectorCount)
	}
	base, ok := l.Data.Alloc(sectors)
	if !ok {
		// No room: drop the allocation (uncached pass-through).
		l.Tags.Dealloc(entry)
		return
	}
	entry.SectorBase = base
	entry.SectorCount = int32(sectors)
	w := l.Data.SectorWordBase(base)
	for i, v := range words {
		l.Data.Write(w+int32(i), v)
	}
}

// --- MXA: X-Cache walker fills served by an address cache. ---

type mxaJob struct {
	req       dram.Request
	remaining int
	data      []uint64
	base      uint64
}

// XCOverAddr adapts an X-Cache's memory port onto an address-based cache:
// each walker fill becomes one or more cache-line requests; the address
// cache sees a plain stream of line addresses (§6: "the address cache
// simply sees a stream of cache line requests"). Read-only — the
// composition rejects dirty writebacks, matching the read-only DSAs that
// use it.
type XCOverAddr struct {
	in   *sim.Queue[dram.Request]
	out  *sim.Queue[dram.Response]
	ac   *addrcache.Cache
	jobs map[uint64]*mxaJob
	next uint64
	acct map[uint64][]uint64 // access id → job id list (one per block)
}

// NewXCOverAddr creates the adapter; xcReq/xcResp are the queues handed to
// core.Build as its "memory" port.
func NewXCOverAddr(k *sim.Kernel, ac *addrcache.Cache) (adapter *XCOverAddr, xcReq *sim.Queue[dram.Request], xcResp *sim.Queue[dram.Response]) {
	a := &XCOverAddr{
		in:   sim.NewQueue[dram.Request](k, "mxa.req", 32),
		out:  sim.NewQueue[dram.Response](k, "mxa.resp", 64),
		ac:   ac,
		jobs: map[uint64]*mxaJob{},
	}
	k.Add(a)
	return a, a.in, a.out
}

// Tick implements sim.Component.
func (a *XCOverAddr) Tick(cy sim.Cycle) {
	// Completions from the address cache.
	for {
		resp, ok := a.ac.RespQ.Pop()
		if !ok {
			break
		}
		job := a.jobs[resp.ID>>16]
		if job == nil {
			panic("hier: MXA response for unknown job")
		}
		// Copy the words this block contributes.
		blockWords := len(resp.Data)
		for i := 0; i < blockWords; i++ {
			addr := resp.BlockBase + uint64(i)*8
			if addr >= job.req.Addr && addr < job.req.Addr+uint64(job.req.Words)*8 {
				job.data[(addr-job.req.Addr)/8] = resp.Data[i]
			}
		}
		job.remaining--
		if job.remaining == 0 {
			a.out.MustPush(dram.Response{ID: job.req.ID, Addr: job.req.Addr, Data: job.data})
			delete(a.jobs, resp.ID>>16)
		}
	}

	// New fills from the X-Cache walker: one fill per cycle, split into
	// the cache-line accesses that cover it.
	req, ok := a.in.Peek()
	if !ok {
		return
	}
	if req.Write {
		panic("hier: MXA composition is read-only (dirty meta data cannot spill through an address cache)")
	}
	bb := a.ac.BlockBytes()
	first := req.Addr &^ (bb - 1)
	last := (req.Addr + uint64(req.Words)*8 - 1) &^ (bb - 1)
	nBlocks := int((last-first)/bb) + 1
	if a.ac.ReqQ.Free() < nBlocks {
		return
	}
	a.in.Pop()
	a.next++
	jid := a.next
	a.jobs[jid] = &mxaJob{req: req, remaining: nBlocks, data: make([]uint64, req.Words), base: first}
	// Access ID: job in bits 16..63, block index in 0..15 (request-ID
	// layout: DESIGN.md §9).
	for i := 0; i < nBlocks; i++ {
		a.ac.ReqQ.MustPush(addrcache.Access{ID: jid<<16 | uint64(i), Addr: first + uint64(i)*bb, Issued: cy})
	}
}

// --- MXS: a sequential stream port beside X-Cache. ---

// Stream is the sequential prefetch port of the MXS composition: the DSA
// partitions its data, streaming the affine part (matrix A, adjacency
// lists) with global addresses over a dedicated channel while dynamic
// accesses go through X-Cache. It prefetches ahead in fixed bursts and
// meters how many words the datapath may consume.
type Stream struct {
	d           *dram.DRAM
	cursor, end uint64
	outstanding int
	avail       uint64
	burstWords  int
	maxOutst    int
	bufferWords uint64 // credit cap: buffered + in-flight words
}

// NewStream builds a stream over [from, from+words·8) on the given DRAM
// channel, prefetching in 8-word bursts, up to 4 outstanding, with a
// 64-word FIFO. Use SetBuffer before the first Tick when a consumer takes
// larger units than that.
func NewStream(k *sim.Kernel, d *dram.DRAM, from, words uint64) *Stream {
	s := &Stream{d: d, cursor: from, end: from + words*8,
		burstWords: 8, maxOutst: 4, bufferWords: 64}
	k.Add(s)
	return s
}

// SetBuffer resizes the stream FIFO (in words). The buffer must cover the
// largest single Take a consumer will perform, or that Take can never be
// satisfied.
func (s *Stream) SetBuffer(words uint64) {
	if words > s.bufferWords {
		s.bufferWords = words
	}
}

// Tick implements sim.Component.
func (s *Stream) Tick(cy sim.Cycle) {
	for {
		if _, ok := s.d.Resp.Pop(); !ok {
			break
		}
		s.outstanding--
		s.avail += uint64(s.burstWords)
	}
	// Credit-based flow control: never exceed the stream FIFO's capacity
	// in buffered plus in-flight words.
	for s.outstanding < s.maxOutst &&
		s.avail+uint64((s.outstanding+1)*s.burstWords) <= s.bufferWords &&
		s.cursor < s.end {
		if !s.d.Req.Push(dram.Request{ID: s.cursor, Addr: s.cursor, Words: s.burstWords}) {
			break
		}
		s.cursor += uint64(s.burstWords) * 8
		s.outstanding++
	}
}

// Take consumes n streamed words if available.
func (s *Stream) Take(n uint64) bool {
	if s.avail < n {
		return false
	}
	s.avail -= n
	return true
}

// Avail reports the currently buffered words.
func (s *Stream) Avail() uint64 { return s.avail }

// Done reports whether the whole range has been fetched.
func (s *Stream) Done() bool { return s.cursor >= s.end && s.outstanding == 0 }

// DRAMStats exposes the stream channel's statistics.
func (s *Stream) DRAMStats() dram.Stats { return s.d.Stats() }
