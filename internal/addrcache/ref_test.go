package addrcache

// Reference address cache and walk engine for the lockstep differential
// test (diff_test.go): the map-MSHR, slice-block cache and the scanning
// engine that the fixed MSHR file, blocks by value and idle skipping
// replaced, kept verbatim apart from names and one fix: a writeback that
// MemReq refuses leaves its fill in MemResp for a retry, as production
// does, instead of dropping the dirty line. Every observable it produces
// must match production on every cycle.

import (
	"fmt"

	"xcache/internal/dram"
	"xcache/internal/energy"
	"xcache/internal/payload"
	"xcache/internal/sim"
)

// refAccessResp returns the whole enclosing block.
type refAccessResp struct {
	ID        uint64
	BlockBase uint64
	Data      []uint64
}

type refLine struct {
	valid bool
	dirty bool
	tag   uint64
	data  []uint64
	lru   uint64
}

type refMSHR struct {
	block   uint64
	waiters []Access
}

type refPendingResp struct {
	readyAt sim.Cycle
	resp    refAccessResp
	access  Access
}

// refCache is the address-tagged baseline cache.
type refCache struct {
	Cfg   Config
	ReqQ  *sim.Queue[Access]
	RespQ *sim.Queue[refAccessResp]

	MemReq  *sim.Queue[dram.Request]
	MemResp *sim.Queue[dram.Response]

	sets    [][]refLine
	mshrs   map[uint64]*refMSHR
	pend    []refPendingResp
	tick    uint64
	stats   Stats
	Meter   *energy.Counters
	nextTag uint64
	// Latency accounting mirrors ctrl.Stats so harnesses can compare.
	L2USum, L2UCount uint64
}

// newRefCache builds the cache and registers it with the kernel.
func newRefCache(k *sim.Kernel, cfg Config, memReq *sim.Queue[dram.Request],
	memResp *sim.Queue[dram.Response], meter *energy.Counters) *refCache {

	cfg.defaults()
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("addrcache: bad geometry %+v", cfg))
	}
	c := &refCache{
		Cfg:     cfg,
		MemReq:  memReq,
		MemResp: memResp,
		Meter:   meter,
		ReqQ:    sim.NewQueue[Access](k, "ac.req", reqDepth),
		RespQ:   sim.NewQueue[refAccessResp](k, "ac.resp", respDepth),
		mshrs:   map[uint64]*refMSHR{},
	}
	c.sets = make([][]refLine, cfg.Sets)
	for i := range c.sets {
		c.sets[i] = make([]refLine, cfg.Ways)
	}
	k.Add(c)
	return c
}

// Stats returns a copy of the statistics.
func (c *refCache) Stats() Stats { return c.stats }

// Idle reports whether no work is queued or in flight.
func (c *refCache) Idle() bool {
	return c.ReqQ.Len() == 0 && len(c.mshrs) == 0 && len(c.pend) == 0
}

// BlockBytes returns the block size in bytes.
func (c *refCache) BlockBytes() uint64 { return uint64(c.Cfg.BlockWords) * 8 }

func (c *refCache) blockOf(addr uint64) uint64 { return addr &^ (c.BlockBytes() - 1) }

func (c *refCache) setOf(block uint64) []refLine {
	idx := (block / c.BlockBytes()) & uint64(c.Cfg.Sets-1)
	return c.sets[idx]
}

// Tick implements sim.Component.
func (c *refCache) Tick(cy sim.Cycle) {
	c.deliver(cy)
	c.acceptFills(cy)

	// One lookup per cycle (single tag port, like the X-Cache front-end).
	head := c.ReqQ.Front()
	if head == nil {
		return
	}
	acc := *head
	block := c.blockOf(acc.Addr)

	// Charge a set probe. CACTI serial (low-power) mode reads the tag
	// array once and then a single data way — one way-sized tag access.
	if c.Meter != nil {
		c.Meter.TagBytes += tagBytes
	}

	if m, exists := c.mshrs[block]; exists {
		if len(m.waiters) >= 8 {
			return // MSHR waiter list full: stall the port
		}
		c.ReqQ.Pop()
		c.stats.Accesses++
		c.stats.Misses++
		c.stats.MSHRMerge++
		m.waiters = append(m.waiters, acc)
		return
	}

	set := c.setOf(block)
	for i := range set {
		ln := &set[i]
		if ln.valid && ln.tag == block {
			c.ReqQ.Pop()
			c.stats.Accesses++
			c.stats.Hits++
			c.tick++
			ln.lru = c.tick
			if acc.Write {
				ln.data[(acc.Addr-block)/8] = acc.Data
				ln.dirty = true
			}
			if c.Meter != nil {
				c.Meter.DataBytes += c.BlockBytes()
			}
			c.pend = append(c.pend, refPendingResp{
				readyAt: cy + hitLatency,
				resp:    refAccessResp{ID: acc.ID, BlockBase: block, Data: append([]uint64(nil), ln.data...)},
				access:  acc,
			})
			return
		}
	}

	// Miss: need an MSHR and a memory-request slot.
	if len(c.mshrs) >= numMSHRs || !c.MemReq.CanPush() {
		return
	}
	c.ReqQ.Pop()
	c.stats.Accesses++
	c.stats.Misses++
	c.mshrs[block] = &refMSHR{block: block, waiters: []Access{acc}}
	c.MemReq.MustPush(dram.Request{ID: block, Addr: block, Words: c.Cfg.BlockWords})
	if c.Meter != nil {
		c.Meter.DRAMAccesses++
		c.Meter.DRAMBytes += c.BlockBytes()
	}
}

func (c *refCache) deliver(cy sim.Cycle) {
	keep := c.pend[:0]
	for _, p := range c.pend {
		if p.readyAt <= cy && c.RespQ.CanPush() {
			c.RespQ.MustPush(p.resp)
			c.L2USum += uint64(cy - p.access.Issued)
			c.L2UCount++
			continue
		}
		keep = append(keep, p)
	}
	c.pend = keep
}

// writeback pushes a dirty line to memory and reports whether MemReq
// took it. (The fix production carries: a refused writeback keeps the
// line dirty, and acceptFills retries the fill next cycle.)
func (c *refCache) writeback(ln *refLine) bool {
	if !c.MemReq.Push(dram.Request{ID: wbFlag | ln.tag, Addr: ln.tag,
		Words: len(ln.data), Write: true, Data: payload.Of(ln.data...)}) {
		return false
	}
	ln.dirty = false
	c.stats.Writebacks++
	if c.Meter != nil {
		c.Meter.DataBytes += c.BlockBytes()
		c.Meter.DRAMAccesses++
		c.Meter.DRAMBytes += c.BlockBytes()
	}
	return true
}

func (c *refCache) acceptFills(cy sim.Cycle) {
	for {
		head := c.MemResp.Front()
		if head == nil {
			break
		}
		resp := *head
		if resp.ID&wbFlag != 0 {
			c.MemResp.Drop()
			continue // writeback ack
		}
		m, exists := c.mshrs[resp.ID]
		if !exists {
			panic(fmt.Sprintf("addrcache: fill for unknown block %#x", resp.ID))
		}

		// Install (LRU victim), writing back a dirty victim first.
		set := c.setOf(m.block)
		victim := &set[0]
		for i := range set {
			ln := &set[i]
			if !ln.valid {
				victim = ln
				break
			}
			if ln.lru < victim.lru {
				victim = ln
			}
		}
		if victim.valid && victim.dirty && !c.writeback(victim) {
			return
		}
		c.MemResp.Drop()
		c.stats.Fills++
		delete(c.mshrs, resp.ID)
		c.tick++
		*victim = refLine{valid: true, tag: m.block, data: append([]uint64(nil), resp.Data.Slice()...), lru: c.tick}
		if c.Meter != nil {
			c.Meter.DataBytes += c.BlockBytes()
		}

		// Answer every waiter, applying write-allocated stores in order.
		for _, acc := range m.waiters {
			if acc.Write {
				victim.data[(acc.Addr-m.block)/8] = acc.Data
				victim.dirty = true
			}
			if c.Meter != nil {
				c.Meter.DataBytes += c.BlockBytes()
			}
			c.pend = append(c.pend, refPendingResp{
				readyAt: cy + hitLatency,
				resp:    refAccessResp{ID: acc.ID, BlockBase: m.block, Data: append([]uint64(nil), victim.data...)},
				access:  acc,
			})
		}
	}
}

// InvalidateAll drops every line (the DASX baseline reloads its
// read-only object cache each refill-compute-update round); dirty lines
// are discarded, so only use on read-only workloads.
func (c *refCache) InvalidateAll() {
	for si := range c.sets {
		for wi := range c.sets[si] {
			c.sets[si][wi] = refLine{}
		}
	}
}

// refWalk is a stateful data-structure traversal. Next receives the block
// data of the previous step (nil on the first call, with the block base
// address) and returns either the next step or a final result.
type refWalk interface {
	Next(blockBase uint64, data []uint64) (Step, *Result)
}

// refJob submits a walk to the engine.
type refJob struct {
	ID     uint64
	W      refWalk
	Issued sim.Cycle
}

// refJobResp completes a refJob.
type refJobResp struct {
	ID     uint64
	Result Result
}

type refWalkCtx struct {
	state   ctxState
	job     refJob
	readyAt sim.Cycle // compute completion
	step    Step
}

// refEngine drives Walks through the cache with bounded parallelism. The
// paper's comparison point makes orchestration decisions free (zero
// decision cost) but still pays for every address load the walk performs.
type refEngine struct {
	Cfg   EngineConfig
	Jobs  *sim.Queue[refJob]
	Resp  *sim.Queue[refJobResp]
	cache *refCache
	ctxs  []refWalkCtx
	stats EngineStats
}

// resultBuffered charges the on-chip staging of a walk's produced words:
// the datapath consumes results from a row/object buffer exactly as it
// consumes X-Cache's data RAM, so the comparison stays symmetric.
func (e *refEngine) resultBuffered(words int) {
	if e.cache.Meter != nil && words > 0 {
		e.cache.Meter.DataBytes += uint64(words) * 8
	}
}

// newRefEngine builds a walk engine over cache.
func newRefEngine(k *sim.Kernel, cfg EngineConfig, cache *refCache) *refEngine {
	if cfg.Contexts == 0 {
		cfg.Contexts = 8
	}
	e := &refEngine{
		Cfg:   cfg,
		Jobs:  sim.NewQueue[refJob](k, "walk.jobs", jobDepth),
		Resp:  sim.NewQueue[refJobResp](k, "walk.resp", jobRespDepth),
		cache: cache,
		ctxs:  make([]refWalkCtx, cfg.Contexts),
	}
	k.Add(e)
	return e
}

// Stats returns a copy of engine statistics.
func (e *refEngine) Stats() EngineStats { return e.stats }

// Idle reports whether all contexts are idle and no jobs are queued.
func (e *refEngine) Idle() bool {
	if e.Jobs.Len() > 0 {
		return false
	}
	for i := range e.ctxs {
		if e.ctxs[i].state != ctxIdle {
			return false
		}
	}
	return true
}

// Tick implements sim.Component.
func (e *refEngine) Tick(cy sim.Cycle) {
	// Route cache responses back to waiting contexts.
	for {
		head := e.cache.RespQ.Front()
		if head == nil {
			break
		}
		resp := *head
		ctx := &e.ctxs[resp.ID]
		if ctx.state != ctxWaitMem {
			panic("addrcache: response for non-waiting context")
		}
		e.cache.RespQ.Drop()
		e.advance(cy, ctx, resp.BlockBase, resp.Data)
	}

	for i := range e.ctxs {
		ctx := &e.ctxs[i]
		switch ctx.state {
		case ctxIdle:
			job, ok := e.Jobs.Pop()
			if !ok {
				continue
			}
			ctx.job = job
			e.stats.Jobs++
			e.advance(cy, ctx, 0, nil)
		case ctxCompute:
			if ctx.readyAt <= cy {
				e.issue(cy, ctx)
			}
		}
	}
}

// advance feeds data to the walk and handles its next step or result.
func (e *refEngine) advance(cy sim.Cycle, ctx *refWalkCtx, blockBase uint64, data []uint64) {
	step, res := ctx.job.W.Next(blockBase, data)
	if res != nil {
		e.resultBuffered(res.Words)
		lat := uint64(cy - ctx.job.Issued)
		e.stats.L2USum += lat
		e.stats.L2UCount++
		if lat > e.stats.L2UMax {
			e.stats.L2UMax = lat
		}
		e.Resp.MustPush(refJobResp{ID: ctx.job.ID, Result: *res})
		ctx.state = ctxIdle
		return
	}
	ctx.step = step
	e.stats.Steps++
	if step.ComputeCycles > 0 {
		e.stats.ComputeCycles += uint64(step.ComputeCycles)
		ctx.state = ctxCompute
		ctx.readyAt = cy + sim.Cycle(step.ComputeCycles)
		return
	}
	e.issue(cy, ctx)
}

func (e *refEngine) issue(cy sim.Cycle, ctx *refWalkCtx) {
	idx := uint64(0)
	for i := range e.ctxs {
		if &e.ctxs[i] == ctx {
			idx = uint64(i)
			break
		}
	}
	if !e.cache.ReqQ.Push(Access{ID: idx, Addr: ctx.step.Addr, Issued: cy}) {
		// Port busy: stay in compute state and retry next cycle.
		ctx.state = ctxCompute
		ctx.readyAt = cy + 1
		return
	}
	ctx.state = ctxWaitMem
}
