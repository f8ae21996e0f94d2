// Package addrcache implements the baseline the paper compares against: a
// conventional address-tagged set-associative cache (with MSHRs) fronted
// by a walk engine. Because the tags are addresses, the DSA must walk its
// data structure — hash, chase pointers, read row_ptr — through the cache
// on every access, even when the element it wants is already on chip;
// that is precisely the behaviour X-Cache's meta-tags short-circuit.
//
// In steady state neither the cache nor the engine allocates: line data
// lives in one array sized in New, a response carries its block by value,
// the MSHR file is a fixed array, and finished walks go back to their
// issuer for reuse. A block is at most payload.Inline words, so DRAM
// reads and writebacks carry it inline too.
package addrcache

import (
	"fmt"

	"xcache/internal/dram"
	"xcache/internal/energy"
	"xcache/internal/payload"
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

// MaxBlockWords is the largest block New accepts; an AccessResp holds
// its block inline in an array of this many words, and a DRAM payload
// of this many words travels inline.
const MaxBlockWords = payload.Inline

// AccessResp returns the whole enclosing block by value: Data[:Words] is
// the block as it stood when the access was served — at the lookup for a
// hit, at the fill for a miss, with this access's own store applied. The
// response is a copy; nothing in the cache aliases it.
type AccessResp struct {
	ID        uint64
	BlockBase uint64
	Words     int
	Data      [MaxBlockWords]uint64
}

// Config sets cache geometry.
type Config struct {
	Sets       int
	Ways       int
	BlockWords int // words per block (4 → 32-byte blocks), at most MaxBlockWords
}

// Timing and sizing every caller shares.
const (
	hitLatency = 3
	numMSHRs   = 16
	maxWaiters = 8 // accesses one MSHR holds; a ninth stalls the port
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
	lru   uint64
}

// mshr tracks one outstanding block fetch and the accesses waiting on
// it, in arrival order.
type mshr struct {
	valid   bool
	block   uint64
	n       int
	waiters [maxWaiters]Access
}

type pendingResp struct {
	readyAt sim.Cycle
	issued  sim.Cycle
	resp    AccessResp
}

// Cache is the address-tagged baseline cache.
type Cache struct {
	Cfg   Config
	ReqQ  *sim.Queue[Access]
	RespQ *sim.Queue[AccessResp]

	MemReq  *sim.Queue[dram.Request]
	MemResp *sim.Queue[dram.Response]

	lines []line   // Sets×Ways, set-major
	data  []uint64 // line i's block is data[i*BlockWords:][:BlockWords]
	mshrs [numMSHRs]mshr
	busy  int // MSHRs in use
	tick  uint64
	stats Stats
	Meter *energy.Counters
	pend  []pendingResp // responses awaiting delivery, in readyAt order
	// Latency accounting mirrors ctrl.Stats so harnesses can compare.
	L2USum, L2UCount uint64
}

// New builds the cache and registers it with the kernel.
func New(k *sim.Kernel, cfg Config, memReq *sim.Queue[dram.Request],
	memResp *sim.Queue[dram.Response], meter *energy.Counters) *Cache {

	cfg.defaults()
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 || cfg.Ways <= 0 ||
		cfg.BlockWords < 0 || cfg.BlockWords > MaxBlockWords {
		panic(fmt.Sprintf("addrcache: bad geometry %+v", cfg))
	}
	c := &Cache{
		Cfg:     cfg,
		MemReq:  memReq,
		MemResp: memResp,
		Meter:   meter,
		ReqQ:    sim.NewQueue[Access](k, "ac.req", reqDepth),
		RespQ:   sim.NewQueue[AccessResp](k, "ac.resp", respDepth),
		lines:   make([]line, cfg.Sets*cfg.Ways),
		data:    make([]uint64, cfg.Sets*cfg.Ways*cfg.BlockWords),
	}
	k.Add(c)
	return c
}

// Stats returns a copy of the statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Idle reports whether no work is queued or in flight.
func (c *Cache) Idle() bool {
	return c.ReqQ.Len() == 0 && c.busy == 0 && len(c.pend) == 0
}

// BlockBytes returns the block size in bytes.
func (c *Cache) BlockBytes() uint64 { return uint64(c.Cfg.BlockWords) * 8 }

func (c *Cache) blockOf(addr uint64) uint64 { return addr &^ (c.BlockBytes() - 1) }

// setOf returns the index of block's first way in lines.
func (c *Cache) setOf(block uint64) int {
	return int((block/c.BlockBytes())&uint64(c.Cfg.Sets-1)) * c.Cfg.Ways
}

// blockData returns line i's block.
func (c *Cache) blockData(i int) []uint64 {
	bw := c.Cfg.BlockWords
	return c.data[i*bw : (i+1)*bw]
}

// mshrFor returns the MSHR tracking block, or nil. The scan stops after
// the last MSHR in use.
func (c *Cache) mshrFor(block uint64) *mshr {
	for i, seen := 0, 0; seen < c.busy; i++ {
		if m := &c.mshrs[i]; m.valid {
			if m.block == block {
				return m
			}
			seen++
		}
	}
	return nil
}

// Tick implements sim.Component.
func (c *Cache) Tick(cy sim.Cycle) {
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

	// A block is never both resident and awaiting its fill, so the
	// lookup order of lines and MSHRs does not matter.
	set := c.setOf(block)
	for i := set; i < set+c.Cfg.Ways; i++ {
		ln := &c.lines[i]
		if ln.valid && ln.tag == block {
			c.ReqQ.Drop()
			c.stats.Accesses++
			c.stats.Hits++
			c.tick++
			ln.lru = c.tick
			data := c.blockData(i)
			if acc.Write {
				data[(acc.Addr-block)/8] = acc.Data
				ln.dirty = true
			}
			if c.Meter != nil {
				c.Meter.DataBytes += c.BlockBytes()
			}
			c.respond(cy, acc, block, data)
			return
		}
	}

	if m := c.mshrFor(block); m != nil {
		if m.n == maxWaiters {
			return // MSHR waiter list full: stall the port
		}
		c.ReqQ.Drop()
		c.stats.Accesses++
		c.stats.Misses++
		c.stats.MSHRMerge++
		m.waiters[m.n] = acc
		m.n++
		return
	}

	// Miss: need an MSHR and a memory-request slot.
	if c.busy == numMSHRs || !c.MemReq.CanPush() {
		return
	}
	c.ReqQ.Drop()
	c.stats.Accesses++
	c.stats.Misses++
	m := &c.mshrs[0]
	for i := 1; m.valid; i++ {
		m = &c.mshrs[i]
	}
	m.valid, m.block, m.n = true, block, 1
	m.waiters[0] = acc
	c.busy++
	c.MemReq.MustPush(dram.Request{ID: block, Addr: block, Words: c.Cfg.BlockWords})
	if c.Meter != nil {
		c.Meter.DRAMAccesses++
		c.Meter.DRAMBytes += c.BlockBytes()
	}
}

// respond queues acc's response, a snapshot of data taken now, for
// delivery hitLatency cycles later.
func (c *Cache) respond(cy sim.Cycle, acc Access, block uint64, data []uint64) {
	c.pend = append(c.pend, pendingResp{readyAt: cy + hitLatency, issued: acc.Issued})
	r := &c.pend[len(c.pend)-1].resp
	r.ID, r.BlockBase = acc.ID, block
	r.Words = copy(r.Data[:], data)
}

// deliver pushes due responses from the front of pend. Entries are
// appended in readyAt order, so the first one not yet due, or refused by
// a full RespQ, ends the pass.
func (c *Cache) deliver(cy sim.Cycle) {
	n := 0
	for ; n < len(c.pend); n++ {
		p := &c.pend[n]
		if p.readyAt > cy || !c.RespQ.Push(p.resp) {
			break
		}
		c.L2USum += uint64(cy - p.issued)
		c.L2UCount++
	}
	c.pend = c.pend[:copy(c.pend, c.pend[n:])]
}

// wbFlag marks a DRAM request as a dirty-line writeback (request-ID
// layout: DESIGN.md §9).
const wbFlag = uint64(1) << 63

// writeback pushes line i, dirty, to memory and reports whether MemReq
// took it. Writebacks are off the critical path; the request carries its
// own copy of the block.
func (c *Cache) writeback(i int) bool {
	if !c.MemReq.CanPush() {
		return false
	}
	ln := &c.lines[i]
	data := c.blockData(i)
	c.MemReq.MustPush(dram.Request{ID: wbFlag | ln.tag, Addr: ln.tag,
		Words: len(data), Write: true, Data: payload.Of(data...)})
	ln.dirty = false
	c.stats.Writebacks++
	if c.Meter != nil {
		c.Meter.DataBytes += c.BlockBytes()
		c.Meter.DRAMAccesses++
		c.Meter.DRAMBytes += c.BlockBytes()
	}
	return true
}

// victim returns the way block fills: the set's first invalid way, else
// its least recently used one.
func (c *Cache) victim(block uint64) int {
	set := c.setOf(block)
	v := set
	for i := set; i < set+c.Cfg.Ways; i++ {
		if !c.lines[i].valid {
			return i
		}
		if c.lines[i].lru < c.lines[v].lru {
			v = i
		}
	}
	return v
}

func (c *Cache) acceptFills(cy sim.Cycle) {
	for {
		resp := c.MemResp.Front()
		if resp == nil {
			return
		}
		if resp.ID&wbFlag != 0 {
			resp.Data.Release()
			c.MemResp.Drop()
			continue // writeback ack
		}
		m := c.mshrFor(resp.ID)
		if m == nil {
			panic(fmt.Sprintf("addrcache: fill for unknown block %#x", resp.ID))
		}

		// Install into the LRU victim. A dirty victim is written back
		// first; while memory refuses the writeback, the fill waits in
		// MemResp and retries next cycle.
		vi := c.victim(m.block)
		if c.lines[vi].valid && c.lines[vi].dirty && !c.writeback(vi) {
			return
		}
		c.stats.Fills++
		c.tick++
		c.lines[vi] = line{valid: true, tag: m.block, lru: c.tick}
		data := c.blockData(vi)
		copy(data, resp.Data.Slice())
		resp.Data.Release()
		c.MemResp.Drop()
		if c.Meter != nil {
			c.Meter.DataBytes += c.BlockBytes()
		}

		// Answer every waiter, applying write-allocated stores in order.
		for _, acc := range m.waiters[:m.n] {
			if acc.Write {
				data[(acc.Addr-m.block)/8] = acc.Data
				c.lines[vi].dirty = true
			}
			if c.Meter != nil {
				c.Meter.DataBytes += c.BlockBytes()
			}
			c.respond(cy, acc, m.block, data)
		}
		m.valid = false
		c.busy--
	}
}

// InvalidateAll drops every line (the DASX baseline reloads its
// read-only object cache each refill-compute-update round); dirty lines
// are discarded, so only use on read-only workloads.
func (c *Cache) InvalidateAll() {
	clear(c.lines)
}
