// Package addrcache implements the baseline the paper compares against: a
// conventional address-tagged set-associative cache (with MSHRs) fronted
// by a walk engine. Because the tags are addresses, the DSA must walk its
// data structure — hash, chase pointers, read row_ptr — through the cache
// on every access, even when the element it wants is already on chip;
// that is precisely the behaviour X-Cache's meta-tags short-circuit.
package addrcache

import (
	"fmt"

	"xcache/internal/dram"
	"xcache/internal/energy"
	"xcache/internal/sim"
)

// Access is a block read — or, with Write set, a word store (the cache
// write-allocates and marks the line dirty) — issued to the cache.
type Access struct {
	ID     uint64
	Addr   uint64 // any address inside the block
	Write  bool
	Data   uint64 // word stored at Addr when Write
	Issued sim.Cycle
}

// AccessResp returns the whole enclosing block.
type AccessResp struct {
	ID        uint64
	BlockBase uint64
	Data      []uint64
}

// Config sets cache geometry.
type Config struct {
	Sets       int
	Ways       int
	BlockWords int // words per block (4 → 32-byte blocks)
}

// Timing and sizing every caller shares.
const (
	hitLatency = 3
	numMSHRs   = 16
	tagBytes   = 4 // address tag bytes per way, charged per set probe
	reqDepth   = 32
	respDepth  = 64
)

func (c *Config) defaults() {
	if c.BlockWords == 0 {
		c.BlockWords = 4
	}
}

// Stats counts cache activity.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	MSHRMerge  uint64
	Fills      uint64
	Writebacks uint64
}

// HitRate returns hits/accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

type line struct {
	valid bool
	dirty bool
	tag   uint64
	data  []uint64
	lru   uint64
}

type mshr struct {
	block   uint64
	waiters []Access
}

type pendingResp struct {
	readyAt sim.Cycle
	resp    AccessResp
	access  Access
}

// Cache is the address-tagged baseline cache.
type Cache struct {
	Cfg   Config
	ReqQ  *sim.Queue[Access]
	RespQ *sim.Queue[AccessResp]

	MemReq  *sim.Queue[dram.Request]
	MemResp *sim.Queue[dram.Response]

	sets    [][]line
	mshrs   map[uint64]*mshr
	pend    []pendingResp
	tick    uint64
	stats   Stats
	Meter   *energy.Counters
	nextTag uint64
	// Latency accounting mirrors ctrl.Stats so harnesses can compare.
	L2USum, L2UCount uint64
}

// New builds the cache and registers it with the kernel.
func New(k *sim.Kernel, cfg Config, memReq *sim.Queue[dram.Request],
	memResp *sim.Queue[dram.Response], meter *energy.Counters) *Cache {

	cfg.defaults()
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("addrcache: bad geometry %+v", cfg))
	}
	c := &Cache{
		Cfg:     cfg,
		MemReq:  memReq,
		MemResp: memResp,
		Meter:   meter,
		ReqQ:    sim.NewQueue[Access](k, "ac.req", reqDepth),
		RespQ:   sim.NewQueue[AccessResp](k, "ac.resp", respDepth),
		mshrs:   map[uint64]*mshr{},
	}
	c.sets = make([][]line, cfg.Sets)
	for i := range c.sets {
		c.sets[i] = make([]line, cfg.Ways)
	}
	k.Add(c)
	return c
}

// Stats returns a copy of the statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Idle reports whether no work is queued or in flight.
func (c *Cache) Idle() bool {
	return c.ReqQ.Len() == 0 && len(c.mshrs) == 0 && len(c.pend) == 0
}

// BlockBytes returns the block size in bytes.
func (c *Cache) BlockBytes() uint64 { return uint64(c.Cfg.BlockWords) * 8 }

func (c *Cache) blockOf(addr uint64) uint64 { return addr &^ (c.BlockBytes() - 1) }

func (c *Cache) setOf(block uint64) []line {
	idx := (block / c.BlockBytes()) & uint64(c.Cfg.Sets-1)
	return c.sets[idx]
}

// Tick implements sim.Component.
func (c *Cache) Tick(cy sim.Cycle) {
	c.deliver(cy)
	c.acceptFills(cy)

	// One lookup per cycle (single tag port, like the X-Cache front-end).
	acc, ok := c.ReqQ.Peek()
	if !ok {
		return
	}
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
			c.pend = append(c.pend, pendingResp{
				readyAt: cy + hitLatency,
				resp:    AccessResp{ID: acc.ID, BlockBase: block, Data: append([]uint64(nil), ln.data...)},
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
	c.mshrs[block] = &mshr{block: block, waiters: []Access{acc}}
	c.MemReq.MustPush(dram.Request{ID: block, Addr: block, Words: c.Cfg.BlockWords})
	if c.Meter != nil {
		c.Meter.DRAMAccesses++
		c.Meter.DRAMBytes += c.BlockBytes()
	}
}

func (c *Cache) deliver(cy sim.Cycle) {
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

// wbFlag marks a DRAM request as a dirty-line writeback (request-ID
// layout: DESIGN.md §9).
const wbFlag = uint64(1) << 63

// writeback pushes a dirty line to memory. Writebacks are off the
// critical path; if the memory queue is full the line is written back
// lazily on a later fill (a simplification a victim buffer would hide).
func (c *Cache) writeback(ln *line) {
	if !c.MemReq.Push(dram.Request{ID: wbFlag | ln.tag, Addr: ln.tag,
		Words: len(ln.data), Write: true, Data: append([]uint64(nil), ln.data...)}) {
		return
	}
	ln.dirty = false
	c.stats.Writebacks++
	if c.Meter != nil {
		c.Meter.DataBytes += c.BlockBytes()
		c.Meter.DRAMAccesses++
		c.Meter.DRAMBytes += c.BlockBytes()
	}
}

func (c *Cache) acceptFills(cy sim.Cycle) {
	for {
		resp, ok := c.MemResp.Peek()
		if !ok {
			break
		}
		if resp.ID&wbFlag != 0 {
			c.MemResp.Pop()
			continue // writeback ack
		}
		m, exists := c.mshrs[resp.ID]
		if !exists {
			panic(fmt.Sprintf("addrcache: fill for unknown block %#x", resp.ID))
		}
		c.MemResp.Pop()
		c.stats.Fills++
		delete(c.mshrs, resp.ID)

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
		if victim.valid && victim.dirty {
			c.writeback(victim)
		}
		c.tick++
		*victim = line{valid: true, tag: m.block, data: append([]uint64(nil), resp.Data...), lru: c.tick}
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
			c.pend = append(c.pend, pendingResp{
				readyAt: cy + hitLatency,
				resp:    AccessResp{ID: acc.ID, BlockBase: m.block, Data: append([]uint64(nil), victim.data...)},
				access:  acc,
			})
		}
	}
}

// InvalidateAll drops every line (the DASX baseline reloads its
// read-only object cache each refill-compute-update round); dirty lines
// are discarded, so only use on read-only workloads.
func (c *Cache) InvalidateAll() {
	for si := range c.sets {
		for wi := range c.sets[si] {
			c.sets[si][wi] = line{}
		}
	}
}
