package hier

import (
	"fmt"
	"sort"

	"xcache/internal/check"
	"xcache/internal/core"
	"xcache/internal/ctrl"
	"xcache/internal/dram"
	"xcache/internal/energy"
	"xcache/internal/mem"
	"xcache/internal/metatag"
	"xcache/internal/program"
	"xcache/internal/sim"
)

// CohFaults configures protocol-level fault injection: each snoop push is
// dropped with probability DropSnoop (deterministically, from Seed). A
// dropped snoop is recovered by the directory's timeout+resend; past the
// retry budget the directory latches a liveness CoherenceViolation — it
// traps rather than letting the hierarchy silently diverge.
type CohFaults struct {
	DropSnoop float64
	Seed      uint64
}

// CohStats counts directory activity.
type CohStats struct {
	Txns        uint64 // transactions started (reads + writes)
	Grants      uint64
	Invals      uint64 // invalidation snoops sent (first sends, not retries)
	Downgrades  uint64 // M→S snoops sent
	Writebacks  uint64 // recalled M values written back into the L2
	BackInvals  uint64 // inclusion recalls after an L2 eviction
	Flushes     uint64 // dirty values flushed to their home address
	SnoopRetry  uint64
	SnoopDrops  uint64 // injected drops (including retried sends)
	L1Evictions uint64
}

// Transaction phases.
const (
	phSnoop uint8 = iota + 1 // waiting for snoop acks (and a recalled value)
	phL2                     // waiting for the L2's MetaLoad answer
	phGrant                  // waiting for room in the requester's grant queue
)

type dirTxn struct {
	key     metatag.Key
	port    int
	write   bool
	isBI    bool // back-invalidation (inclusion recall), no grant
	phase   uint8
	pending int // outstanding snoop acks
	needVal bool
	haveVal bool
	val     uint64
	haveL2  bool
}

type dirLine struct {
	sharers   uint64 // bitmask of ports holding S
	owner     int    // port holding M, or -1
	busy      *dirTxn
	pendingBI bool
	inL2      bool
	l2Ops     int // outstanding writeback MetaStores for this key
}

func (ln *dirLine) copies() uint64 {
	m := ln.sharers
	if ln.owner >= 0 {
		m |= 1 << uint(ln.owner)
	}
	return m
}

func (ln *dirLine) idle() bool {
	return ln.sharers == 0 && ln.owner < 0 && ln.busy == nil && !ln.pendingBI && ln.l2Ops == 0
}

type snoopRec struct {
	seq     uint64
	port    int
	key     metatag.Key
	kind    uint8
	txn     *dirTxn
	sent    sim.Cycle
	retries int
}

// Directory serializes coherence transactions: at most one in flight per
// key, each a short script of snoops, an optional L2 access, and a grant.
// It is the L2 controller's only client, so per-key ordering through the
// shared level follows from its single request FIFO.
type Directory struct {
	SnoopTimeout int
	MaxRetries   int

	ports  []*CohL1
	l2     *ctrl.Controller
	bridge *memBridge

	lines  map[metatag.Key]*dirLine
	txns   []*dirTxn
	biQ    []metatag.Key
	l2Out  []ctrl.MetaReq
	l2ByID map[uint64]*dirTxn
	wbIDs  map[uint64]metatag.Key
	snoops []*snoopRec

	snoopSeq uint64
	nextID   uint64
	rng      uint64
	faults   CohFaults
	rr       int // intake round-robin cursor
	err      error
	stats    CohStats
}

func newDirectory(k *sim.Kernel, l2 *ctrl.Controller, bridge *memBridge, faults CohFaults,
	snoopTimeout, maxRetries int) *Directory {
	d := &Directory{
		SnoopTimeout: snoopTimeout,
		MaxRetries:   maxRetries,
		l2:           l2,
		bridge:       bridge,
		lines:        map[metatag.Key]*dirLine{},
		l2ByID:       map[uint64]*dirTxn{},
		wbIDs:        map[uint64]metatag.Key{},
		faults:       faults,
		rng:          check.Mix64(faults.Seed ^ 0x8b4d_17f3_a02c_55e9),
	}
	k.Add(d)
	return d
}

// Stats returns a copy of the statistics.
func (d *Directory) Stats() CohStats { return d.stats }

// Idle reports whether no transaction, snoop, or L2 access is in flight.
func (d *Directory) Idle() bool {
	return len(d.txns) == 0 && len(d.biQ) == 0 && len(d.l2Out) == 0 &&
		len(d.l2ByID) == 0 && len(d.wbIDs) == 0 && len(d.snoops) == 0
}

// ActivityCount implements the watchdog's progress counter.
func (d *Directory) ActivityCount() uint64 {
	s := &d.stats
	return s.Txns + s.Grants + s.Invals + s.Downgrades + s.Writebacks + s.SnoopRetry
}

// CheckInvariants implements the check package's per-cycle self-audit:
// it surfaces the latched liveness violation, if any.
func (d *Directory) CheckInvariants(sim.Cycle) error { return d.err }

// DiagnoseName implements check.Diagnoser.
func (d *Directory) DiagnoseName() string { return "coh-directory" }

// Diagnose implements check.Diagnoser.
func (d *Directory) Diagnose() []string {
	out := []string{fmt.Sprintf("%d lines tracked, %d txns, %d snoops outstanding, %d back-invals queued",
		len(d.lines), len(d.txns), len(d.snoops), len(d.biQ))}
	for _, t := range d.txns {
		out = append(out, fmt.Sprintf("txn key=%d port=%d write=%v bi=%v phase=%d acks=%d needVal=%v haveVal=%v",
			t.key[0], t.port, t.write, t.isBI, t.phase, t.pending, t.needVal, t.haveVal))
	}
	return out
}

func (d *Directory) line(key metatag.Key) *dirLine {
	ln := d.lines[key]
	if ln == nil {
		ln = &dirLine{owner: -1}
		d.lines[key] = ln
	}
	return ln
}

func (d *Directory) gc(key metatag.Key) {
	if ln := d.lines[key]; ln != nil && ln.idle() && !ln.inL2 {
		delete(d.lines, key)
	}
}

// roll draws a deterministic uniform [0,1) for fault decisions.
func (d *Directory) roll() float64 {
	d.rng += 0x9e3779b97f4a7c15
	return float64(check.Mix64(d.rng)>>11) / float64(1<<53)
}

// Tick implements sim.Component.
func (d *Directory) Tick(cy sim.Cycle) {
	d.drainL2Resps()
	d.drainEvicts()
	d.drainAcks()
	d.retrySnoops(cy)
	d.advanceTxns()
	d.startBackInvals(cy)
	d.intake(cy)
	for len(d.l2Out) > 0 && d.l2.ReqQ.CanPush() {
		d.l2.ReqQ.MustPush(d.l2Out[0])
		d.l2Out = d.l2Out[1:]
	}
}

func (d *Directory) drainL2Resps() {
	for {
		resp, ok := d.l2.RespQ.Pop()
		if !ok {
			return
		}
		if key, isWB := d.wbIDs[resp.ID]; isWB {
			delete(d.wbIDs, resp.ID)
			if ln := d.lines[key]; ln != nil {
				ln.l2Ops--
				ln.inL2 = true // the MetaStore write-allocated the line
				d.gc(key)
			}
			continue
		}
		t := d.l2ByID[resp.ID]
		if t == nil {
			panic(fmt.Sprintf("hier: directory got L2 response for unknown id %d", resp.ID))
		}
		delete(d.l2ByID, resp.ID)
		t.haveL2 = true
		t.val = resp.Value
		d.line(t.key).inL2 = true
	}
}

func (d *Directory) drainEvicts() {
	for p, l1 := range d.ports {
		for {
			ev, ok := l1.evicts.Pop()
			if !ok {
				break
			}
			d.stats.L1Evictions++
			ln := d.line(ev.key)
			ln.sharers &^= 1 << uint(p)
			if ln.owner == p {
				ln.owner = -1
			}
			if ev.wasM {
				// The silently evicted M value is the newest copy. A busy
				// transaction waiting on it (its snoop will find nothing)
				// adopts it and performs the writeback itself; otherwise
				// the directory writes it back into the L2 here.
				if ln.busy != nil && ln.busy.needVal && !ln.busy.haveVal {
					ln.busy.val = ev.val
					ln.busy.haveVal = true
				} else {
					d.writeback(ev.key, ev.val)
				}
			}
			d.gc(ev.key)
		}
	}
}

func (d *Directory) drainAcks() {
	for p, l1 := range d.ports {
		for {
			ack, ok := l1.acks.Pop()
			if !ok {
				break
			}
			rec := d.takeSnoop(ack.seq)
			if rec == nil {
				continue // late duplicate from a retried snoop
			}
			rec.txn.pending--
			ln := d.line(ack.key)
			switch rec.kind {
			case snoopInval:
				ln.sharers &^= 1 << uint(p)
				if ln.owner == p {
					ln.owner = -1
				}
			case snoopDown:
				if ln.owner == p {
					ln.owner = -1
				}
				if ack.had {
					ln.sharers |= 1 << uint(p)
				}
			}
			if ack.had && ack.wasM && !rec.txn.haveVal {
				rec.txn.val = ack.val
				rec.txn.haveVal = true
			}
		}
	}
}

// takeSnoop removes and returns the outstanding record for seq.
func (d *Directory) takeSnoop(seq uint64) *snoopRec {
	for i, r := range d.snoops {
		if r.seq == seq {
			d.snoops = append(d.snoops[:i], d.snoops[i+1:]...)
			return r
		}
	}
	return nil
}

func (d *Directory) retrySnoops(cy sim.Cycle) {
	for _, r := range d.snoops {
		if cy-r.sent < sim.Cycle(d.SnoopTimeout) {
			continue
		}
		r.retries++
		if r.retries > d.MaxRetries {
			if d.err == nil {
				d.err = &check.CoherenceViolation{Cycle: cy, Rule: "liveness", Key: [2]uint64(r.key),
					Detail: fmt.Sprintf("snoop to port %d unacknowledged after %d retries", r.port, d.MaxRetries)}
			}
			continue
		}
		d.stats.SnoopRetry++
		r.sent = cy
		d.push(r)
	}
}

// sendSnoop records and (fault permitting) delivers one snoop.
func (d *Directory) sendSnoop(cy sim.Cycle, port int, key metatag.Key, kind uint8, t *dirTxn) {
	d.snoopSeq++
	r := &snoopRec{seq: d.snoopSeq, port: port, key: key, kind: kind, txn: t, sent: cy}
	d.snoops = append(d.snoops, r)
	t.pending++
	if kind == snoopInval {
		d.stats.Invals++
	} else {
		d.stats.Downgrades++
	}
	d.push(r)
}

// push attempts delivery of a recorded snoop; an injected drop or a full
// queue leaves it to the retry timer.
func (d *Directory) push(r *snoopRec) {
	if d.faults.DropSnoop > 0 && d.roll() < d.faults.DropSnoop {
		d.stats.SnoopDrops++
		return
	}
	if q := d.ports[r.port].snoops; q.CanPush() {
		q.MustPush(snoopMsg{key: r.key, kind: r.kind, seq: r.seq})
	}
}

// writeback pushes a recalled Modified value into the L2 (write-allocate:
// this also restores inclusion after an L2 eviction raced the recall).
func (d *Directory) writeback(key metatag.Key, val uint64) {
	d.nextID++
	id := d.nextID
	d.wbIDs[id] = key
	d.line(key).l2Ops++
	d.l2Out = append(d.l2Out, ctrl.MetaReq{ID: id, Op: ctrl.MetaStore, Key: key, Payload: val})
	d.stats.Writebacks++
}

func (d *Directory) advanceTxns() {
	keep := d.txns[:0]
	for _, t := range d.txns {
		if t.phase == phSnoop && t.pending == 0 && (!t.needVal || t.haveVal) {
			if t.haveVal {
				if t.isBI {
					// The line left the L2; its newest value goes to the
					// element's home address, not back into the cache.
					d.bridge.flush(t.key, t.val)
					d.stats.Flushes++
				} else {
					d.writeback(t.key, t.val)
				}
			}
			switch {
			case t.isBI:
				ln := d.line(t.key)
				ln.busy = nil
				ln.pendingBI = false
				d.gc(t.key)
				continue
			case t.haveVal:
				t.phase = phGrant
			default:
				t.phase = phL2
				d.nextID++
				d.l2ByID[d.nextID] = t
				d.l2Out = append(d.l2Out, ctrl.MetaReq{ID: d.nextID, Op: ctrl.MetaLoad, Key: t.key})
			}
		}
		if t.phase == phL2 && t.haveL2 {
			t.phase = phGrant
		}
		if t.phase == phGrant {
			l1 := d.ports[t.port]
			if l1.grants.CanPush() {
				state := int8(MesiS)
				ln := d.line(t.key)
				if t.write {
					state = MesiM
					ln.owner = t.port
					ln.sharers = 0
				} else {
					ln.sharers |= 1 << uint(t.port)
				}
				l1.grants.MustPush(dirGrant{key: t.key, state: state, val: t.val})
				d.stats.Grants++
				ln.busy = nil
				// A back-inval flagged while the transaction ran stays
				// flagged: whether it is moot (the transaction's own L2
				// access re-established the line) is decided by
				// startBackInvals against the L2's actual tag state — the
				// L2 may have evicted the line again after our refill.
				continue
			}
		}
		keep = append(keep, t)
	}
	d.txns = keep
}

// startBackInvals launches inclusion recalls for lines the L2 evicted
// while L1 copies were live.
func (d *Directory) startBackInvals(cy sim.Cycle) {
	rest := d.biQ[:0]
	for _, key := range d.biQ {
		ln := d.lines[key]
		if ln == nil || !ln.pendingBI {
			continue
		}
		// The L2's tag array is the ground truth for inclusion: a recall
		// is moot once the line is back (a transaction's refill or an
		// eviction writeback re-allocated it — transient entries count,
		// their walker completes into a stable line).
		if d.l2.Tags.Probe(key) != nil {
			ln.pendingBI = false
			d.gc(key)
			continue
		}
		// Wait out a busy transaction or an in-flight writeback for the
		// key: either re-establishes the line, re-deciding the recall.
		if ln.busy != nil || ln.l2Ops > 0 {
			rest = append(rest, key)
			continue
		}
		if ln.copies() == 0 {
			ln.pendingBI = false
			d.gc(key)
			continue
		}
		t := &dirTxn{key: key, isBI: true, port: -1, phase: phSnoop, needVal: ln.owner >= 0}
		ln.busy = t
		d.txns = append(d.txns, t)
		d.stats.BackInvals++
		for p := 0; p < len(d.ports); p++ {
			if ln.copies()&(1<<uint(p)) != 0 {
				d.sendSnoop(cy, p, key, snoopInval, t)
			}
		}
	}
	d.biQ = rest
}

// intake starts new transactions, round-robin across ports, holding a
// port's head request while its key is busy (per-key serialization).
func (d *Directory) intake(cy sim.Cycle) {
	n := len(d.ports)
	for i := 0; i < n; i++ {
		p := (d.rr + i) % n
		req, ok := d.ports[p].dirQ.Peek()
		if !ok {
			continue
		}
		ln := d.line(req.key)
		if ln.busy != nil || ln.pendingBI {
			continue // head-of-line: per-key order is the protocol's backbone
		}
		d.ports[p].dirQ.Pop()
		t := &dirTxn{key: req.key, port: p, write: req.write, phase: phSnoop}
		ln.busy = t
		d.txns = append(d.txns, t)
		d.stats.Txns++
		if req.write {
			for q := 0; q < n; q++ {
				if q != p && ln.copies()&(1<<uint(q)) != 0 {
					d.sendSnoop(cy, q, req.key, snoopInval, t)
				}
			}
			t.needVal = ln.owner >= 0 && ln.owner != p
		} else if ln.owner >= 0 && ln.owner != p {
			d.sendSnoop(cy, ln.owner, req.key, snoopDown, t)
			t.needVal = true
		}
	}
	d.rr = (d.rr + 1) % n
}

// --- check.CoherenceSource ---

// CohSnapshot implements check.CoherenceSource: the cross-hierarchy state
// of every tracked line, in sorted-key order.
func (d *Directory) CohSnapshot() check.CohSnapshot {
	acc := map[metatag.Key]*check.CohLine{}
	get := func(key metatag.Key) *check.CohLine {
		ln := acc[key]
		if ln == nil {
			ln = &check.CohLine{Key: [2]uint64(key), L1: make([]int8, len(d.ports))}
			acc[key] = ln
		}
		return ln
	}
	for p, l1 := range d.ports {
		l1.Tags.ForEach(func(e *metatag.Entry) {
			get(e.Key).L1[p] = int8(e.State)
		})
	}
	d.l2.Tags.ForEach(func(e *metatag.Entry) {
		ln := get(e.Key)
		if e.Walker != metatag.NoWalker {
			ln.Pending = true // transient: a walker is filling it
		} else {
			ln.L2 = true
		}
	})
	// A busy transaction, queued back-inval, or outstanding writeback
	// keeps the line logically pending: every in-flight message window
	// (grant, snoop, ack, evict notice, queued L2 op) is covered by one of
	// the three, because each is cleared only after its counterpart lands.
	for key, dl := range d.lines {
		if dl.busy != nil || dl.pendingBI || dl.l2Ops > 0 {
			get(key).Pending = true
		}
	}
	keys := make([]metatag.Key, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	snap := check.CohSnapshot{Lines: make([]check.CohLine, 0, len(keys))}
	for _, k := range keys {
		snap.Lines = append(snap.Lines, *acc[k])
	}
	return snap
}

// CohEvents implements check.CoherenceSource: it drains every port's
// value events in port order.
func (d *Directory) CohEvents() []check.CohEvent {
	var out []check.CohEvent
	for _, l1 := range d.ports {
		out = append(out, l1.events...)
		l1.events = nil
	}
	return out
}

// onL2Evict is the L2 controller's eviction hook: flush a dirty victim to
// its home address and schedule inclusion recalls for live L1 copies.
// Returning true takes ownership of the writeback (the controller skips
// its spill path).
func (d *Directory) onL2Evict(n ctrl.EvictNote) bool {
	if n.Dirty && len(n.Words) > 0 {
		d.bridge.flush(n.Key, n.Words[0])
		d.stats.Flushes++
	}
	ln := d.lines[n.Key]
	if ln == nil {
		return true
	}
	ln.inL2 = false
	if ln.copies() != 0 || ln.busy != nil {
		if !ln.pendingBI {
			ln.pendingBI = true
			d.biQ = append(d.biQ, n.Key)
		}
	} else {
		d.gc(n.Key)
	}
	return true
}

// --- memBridge: the L2's memory port, plus home-address flushes ---

// flushIDBit tags bridge-originated DRAM writes; it sits below the L2
// controller's writeback flag (63), above its walker ids (request-ID
// layout: DESIGN.md §9).
const flushIDBit = uint64(1) << 61

// memBridge sits between the L2 controller and the DRAM channel. It
// forwards walker fills unchanged, and adds a flush path that writes a
// dirty L2 victim back to the element's home address — holding any fill
// that overlaps a pending flush until the write is acknowledged, so a
// re-walk can never read the stale home value.
type memBridge struct {
	d      *dram.DRAM
	l2Req  *sim.Queue[dram.Request]
	l2Resp *sim.Queue[dram.Response]

	base    uint64
	flushQ  []dram.Request
	pending map[uint64]int // word address → outstanding flush writes
	ids     map[uint64]uint64
	seq     uint64
}

func newMemBridge(k *sim.Kernel, d *dram.DRAM, l2Req *sim.Queue[dram.Request],
	l2Resp *sim.Queue[dram.Response]) *memBridge {
	b := &memBridge{d: d, l2Req: l2Req, l2Resp: l2Resp,
		pending: map[uint64]int{}, ids: map[uint64]uint64{}}
	k.Add(b)
	return b
}

// flush registers a home-address write for key's value. The address is
// marked pending synchronously, before the write is even issued, so a
// fill racing the flush is held from this cycle on.
func (b *memBridge) flush(key metatag.Key, val uint64) {
	addr := b.base + key[0]*8
	b.seq++
	id := flushIDBit | b.seq
	b.ids[id] = addr
	b.pending[addr]++
	b.flushQ = append(b.flushQ, dram.Request{ID: id, Addr: addr, Words: 1, Write: true, Data: []uint64{val}})
}

// Tick implements sim.Component.
func (b *memBridge) Tick(sim.Cycle) {
	for {
		resp, ok := b.d.Resp.Peek()
		if !ok {
			break
		}
		if addr, mine := b.ids[resp.ID]; mine {
			b.d.Resp.Pop()
			delete(b.ids, resp.ID)
			if b.pending[addr]--; b.pending[addr] == 0 {
				delete(b.pending, addr)
			}
			continue
		}
		if !b.l2Resp.CanPush() {
			break
		}
		b.d.Resp.Pop()
		b.l2Resp.MustPush(resp)
	}
	for len(b.flushQ) > 0 && b.d.Req.CanPush() {
		b.d.Req.MustPush(b.flushQ[0])
		b.flushQ = b.flushQ[1:]
	}
	for {
		req, ok := b.l2Req.Peek()
		if !ok || !b.d.Req.CanPush() {
			break
		}
		if !req.Write && b.overlaps(req) {
			break // hold the fill until the flush it races is acknowledged
		}
		b.l2Req.Pop()
		b.d.Req.MustPush(req)
	}
}

func (b *memBridge) overlaps(req dram.Request) bool {
	if len(b.pending) == 0 && len(b.flushQ) == 0 {
		return false
	}
	for w := 0; w < req.Words; w++ {
		if b.pending[req.Addr+uint64(w)*8] > 0 {
			return true
		}
	}
	return false
}

// --- the assembled coherent system ---

// CohConfig sizes a coherent hierarchy.
type CohConfig struct {
	Ports    int
	L1       L1Config
	L2Sets   int
	L2Ways   int
	L2Active int

	SnoopTimeout    int // 0 → 64
	MaxSnoopRetries int // 0 → 8
	MaxWaiters      int // 0 → 8

	NumKeys int // size of the backing element array (0 → 256)
	Faults  CohFaults
}

func (c *CohConfig) defaults() {
	if c.Ports == 0 {
		c.Ports = 2
	}
	// Default only a fully-zero L1: a partially-filled geometry with
	// Sets == 0 is a caller mistake Validate must surface, not paper over.
	if c.L1 == (L1Config{}) {
		c.L1 = L1Config{Sets: 8, Ways: 2, WordsPerSector: 1}
	}
	if c.L2Sets == 0 {
		c.L2Sets = 64
	}
	if c.L2Ways == 0 {
		c.L2Ways = 4
	}
	if c.L2Active == 0 {
		c.L2Active = 8
	}
	if c.SnoopTimeout == 0 {
		c.SnoopTimeout = 64
	}
	if c.MaxSnoopRetries == 0 {
		c.MaxSnoopRetries = 8
	}
	if c.MaxWaiters == 0 {
		c.MaxWaiters = 8
	}
	if c.NumKeys == 0 {
		c.NumKeys = 256
	}
}

// cohArraySpec is the shared L2's walker program: loads walk the backing
// array (as the hierarchy example does); stores write-allocate the
// incoming value without a DRAM read — the directory only stores recalled
// Modified values, which are by construction the newest copy.
func cohArraySpec() program.Spec {
	return program.Spec{
		Name:   "coharray",
		States: []string{"WaitFill"},
		Transitions: []program.Transition{
			{State: "Default", Event: "MetaLoad", Asm: `
				allocm
				lde r4, e0
				shl r5, r1, 3
				add r5, r4, r5
				enqfilli r5, 1
				state WaitFill`},
			{State: "WaitFill", Event: "Fill", Asm: `
				peek r6, 0
				allocdi r7, 1
				writed r7, r6
				li r8, 1
				update r7, r8
				enqresp r6, OK
				halt Valid`},
			{State: "Default", Event: "MetaStore", Asm: `
				allocm
				allocdi r7, 1
				writed r7, r0
				li r8, 1
				update r7, r8
				enqresp r0, OK
				halt Valid`},
		},
	}
}

// CohSystem is the assembled coherent hierarchy: N CohL1 ports, the
// directory, a shared walking L2, and its DRAM channel behind the flush
// bridge.
type CohSystem struct {
	K     *sim.Kernel
	Img   *mem.Image
	DRAM  *dram.DRAM
	L2    *core.Cache
	Dir   *Directory
	Ports []*CohL1
	Base  uint64
	Meter *energy.Counters
	Cfg   CohConfig
}

// NewCohSystem builds the hierarchy. Element i's home is Base + 8i; use
// Seed to initialize values before the first request.
func NewCohSystem(cfg CohConfig) (*CohSystem, error) {
	cfg.defaults()
	if err := cfg.L1.Validate(); err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	img := mem.NewImage()
	d := dram.New(k, dram.DefaultConfig(), img)
	meter := &energy.Counters{}
	l2Req := sim.NewQueue[dram.Request](k, "cohbridge.req", 32)
	l2Resp := sim.NewQueue[dram.Response](k, "cohbridge.resp", 64)
	l2, err := core.Build(k, core.Config{Name: "CohL2", Sets: cfg.L2Sets, Ways: cfg.L2Ways,
		KeyWords: 1, WordsPerSector: 1, NumActive: cfg.L2Active, NumExe: 2, RespDataWords: 1},
		cohArraySpec(), l2Req, l2Resp, meter)
	if err != nil {
		return nil, err
	}
	bridge := newMemBridge(k, d, l2Req, l2Resp)
	dir := newDirectory(k, l2.Ctrl, bridge, cfg.Faults, cfg.SnoopTimeout, cfg.MaxSnoopRetries)
	s := &CohSystem{K: k, Img: img, DRAM: d, L2: l2, Dir: dir, Meter: meter, Cfg: cfg}
	for p := 0; p < cfg.Ports; p++ {
		l1 := newCohL1(k, p, cfg.L1, cfg.MaxWaiters, meter)
		s.Ports = append(s.Ports, l1)
		dir.ports = append(dir.ports, l1)
	}
	s.Base = img.AllocWords(cfg.NumKeys)
	bridge.base = s.Base
	l2.SetEnv(0, s.Base)
	l2.Ctrl.SetEvictHook(dir.onL2Evict)
	return s, nil
}

// Seed writes element i's initial value into the backing image.
func (s *CohSystem) Seed(i int, v uint64) {
	s.Img.W64(s.Base+uint64(i)*8, v)
}

// Idle reports whether the whole hierarchy has quiesced.
func (s *CohSystem) Idle() bool {
	if !s.Dir.Idle() {
		return false
	}
	for _, p := range s.Ports {
		if !p.Idle() {
			return false
		}
	}
	return true
}

// Err surfaces the directory's latched protocol violation, if any.
func (s *CohSystem) Err() error { return s.Dir.err }
