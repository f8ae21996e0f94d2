// Coherent multi-level hierarchy: per-walker L1 X-Caches over a shared
// inclusive L2, kept consistent by a MESI-lite directory protocol.
//
// The paper's compositions (§6) are read-only upstream — MetaL1 forwards
// every store downstream. This file adds the missing write path: each
// walker (port) gets a private CohL1 that caches elements in Shared or
// Modified state, and a Directory serializes per-key transactions over
// the shared L2:
//
//   - states are M / S / I on the L1 meta-tag sectors (metatag.Entry.State
//     carries MesiS/MesiM; Dirty ≡ M);
//   - writes invalidate-on-allocate: a store grant invalidates every other
//     copy before the requester gets M;
//   - the L2 is inclusive: its eviction hook (ctrl.SetEvictHook)
//     back-invalidates L1 copies and flushes a dirty victim to the
//     element's home address, so a later re-walk observes the store;
//   - dropped invalidations (fault injection) retry on a timeout and,
//     past the retry budget, latch a typed liveness violation — the
//     protocol traps rather than silently diverging.
//
// The hierarchy checks its own protocol: once check.Attach enables it
// (Directory.EnableProtocolCheck), the Directory's CheckInvariants
// audits the single-writer, inclusion, and no-stale-fill rules every
// cycle.
package hier

import (
	"fmt"

	"xcache/internal/dataram"
	"xcache/internal/energy"
	"xcache/internal/metatag"
	"xcache/internal/sim"
)

// L1 coherence states, stored in metatag.Entry.State. Invalid is simply
// absence from the array.
const (
	MesiS = 1 // Shared: read-only copy, other ports may hold it too
	MesiM = 2 // Modified: sole copy, locally dirty
)

// CohOp is a coherent port operation.
type CohOp uint8

// The coherent port operations. Stores are applied locally under M; the
// merge flavors mirror ctrl.MetaStoreMerge/MergeMin.
const (
	OpLoad CohOp = iota
	OpStore
	OpMerge
	OpMergeMin
)

func (o CohOp) isStore() bool { return o != OpLoad }

// CohReq is one request into a coherent L1 port.
type CohReq struct {
	ID      uint64
	Op      CohOp
	Key     metatag.Key
	Payload uint64
}

// CohResp answers a CohReq: loads return the element value, stores the
// post-store value.
type CohResp struct {
	ID    uint64
	Value uint64
}

// --- protocol messages (L1 ⇄ directory) ---

type dirReq struct {
	key   metatag.Key
	write bool
}

type dirGrant struct {
	key   metatag.Key
	state int8 // MesiS or MesiM
	val   uint64
}

const (
	snoopInval uint8 = iota + 1 // drop the copy, return a Modified value
	snoopDown                   // M → S, return the Modified value
)

type snoopMsg struct {
	key  metatag.Key
	kind uint8
	seq  uint64
}

type snoopAck struct {
	key  metatag.Key
	seq  uint64
	had  bool // the port still held the line when the snoop arrived
	wasM bool
	val  uint64 // valid iff had && wasM
}

// evictMsg notifies the directory that a port silently dropped a line
// (L1 capacity eviction); a Modified victim carries its value.
type evictMsg struct {
	key  metatag.Key
	wasM bool
	val  uint64
}

// CohL1Stats counts one coherent port's activity.
type CohL1Stats struct {
	Loads, Stores uint64
	Hits, Misses  uint64
	Upgrades      uint64 // stores that hit Shared and requested M
	Snoops        uint64
	Evictions     uint64
}

type cohPending struct {
	readyAt sim.Cycle
	resp    CohResp
}

// CohL1 is one walker's private coherent level: a small meta-tagged
// array holding single-word elements in Shared or Modified state. All
// traffic below it goes through the directory.
type CohL1 struct {
	Port  int
	Cfg   L1Config
	Tags  *metatag.Array
	Data  *dataram.RAM
	ReqQ  *sim.Queue[CohReq]
	RespQ *sim.Queue[CohResp]

	dirQ   *sim.Queue[dirReq]   // miss/upgrade requests to the directory
	grants *sim.Queue[dirGrant] // directory grants
	snoops *sim.Queue[snoopMsg] // directory-initiated recalls
	acks   *sim.Queue[snoopAck]
	evicts *sim.Queue[evictMsg]

	numKeys int               // keys at or above it lie outside the element array
	mshrs   mshrTable[CohReq] // each entry's waiters: l1MaxWaiters, the bound admit keeps
	issueQ  []dirReq          // requests waiting for room in dirQ, in arming order: one per unissued miss, so l1MaxOutstanding
	pend    []cohPending
	coh     *cohCheck // the directory's value oracle, nil unless its protocol check is on
	err     error     // a request outside the element array, latched
	stats   CohL1Stats
}

func newCohL1(k *sim.Kernel, port int, cfg L1Config, numKeys int, meter *energy.Counters) *CohL1 {
	cfg.defaults()
	name := fmt.Sprintf("coh%d", port)
	l := &CohL1{
		Port:    port,
		Cfg:     cfg,
		Tags:    metatag.New(metatag.Config{Sets: cfg.Sets, Ways: cfg.Ways}, meter),
		Data:    dataram.New(dataram.Config{Sectors: cfg.sectors(), WordsPerSector: 1}, meter),
		ReqQ:    sim.NewQueue[CohReq](k, name+".req", l1ReqDepth),
		RespQ:   sim.NewQueue[CohResp](k, name+".resp", 64),
		dirQ:    sim.NewQueue[dirReq](k, name+".dir", 16),
		grants:  sim.NewQueue[dirGrant](k, name+".grant", 16),
		snoops:  sim.NewQueue[snoopMsg](k, name+".snoop", 16),
		acks:    sim.NewQueue[snoopAck](k, name+".ack", 16),
		evicts:  sim.NewQueue[evictMsg](k, name+".evict", 16),
		numKeys: numKeys,
		issueQ:  make([]dirReq, 0, l1MaxOutstanding),
	}
	waiters := make([]CohReq, l1MaxOutstanding*l1MaxWaiters)
	for i := range l.mshrs.slots {
		l.mshrs.slots[i].waiters = waiters[i*l1MaxWaiters : i*l1MaxWaiters : (i+1)*l1MaxWaiters]
	}
	k.Add(l)
	return l
}

// Stats returns a copy of the statistics.
func (l *CohL1) Stats() CohL1Stats { return l.stats }

// Idle reports whether no requests are queued or outstanding.
func (l *CohL1) Idle() bool {
	return l.ReqQ.Len() == 0 && l.mshrs.live() == 0 && len(l.pend) == 0
}

// CheckInvariants implements the check package's per-cycle self-audit:
// it surfaces a latched out-of-range request, if any.
func (l *CohL1) CheckInvariants(sim.Cycle) error { return l.err }

// ActivityCount implements the watchdog's progress counter.
func (l *CohL1) ActivityCount() uint64 {
	s := &l.stats
	return s.Loads + s.Stores + s.Hits + s.Snoops + s.Evictions
}

// Tick implements sim.Component.
func (l *CohL1) Tick(cy sim.Cycle) {
	// Matured responses out.
	keep := l.pend[:0]
	for _, p := range l.pend {
		if p.readyAt <= cy && l.RespQ.CanPush() {
			l.RespQ.MustPush(p.resp)
			continue
		}
		keep = append(keep, p)
	}
	l.pend = keep

	// Grants strictly before snoops: the directory serializes per key, so
	// a snoop in flight always logically follows any grant in flight (the
	// snooping transaction could only start after the granting one
	// finished). The two travel in separate queues, so enforce the order
	// here — otherwise an invalidation could overtake the grant it
	// follows and resurrect a stale copy.
	l.handleGrants(cy)
	l.handleSnoops()

	// Issue directory requests for new misses and for misses an upgrade
	// re-armed, in order, as far as dirQ has room.
	n := 0
	for n < len(l.issueQ) && l.dirQ.CanPush() {
		l.dirQ.MustPush(l.issueQ[n])
		n++
	}
	l.issueQ = l.issueQ[:copy(l.issueQ, l.issueQ[n:])]

	l.admit(cy)
}

// handleSnoops services directory recalls: invalidations drop the copy,
// downgrades demote M to S; either returns a Modified value.
func (l *CohL1) handleSnoops() {
	for {
		if l.grants.Len() > 0 {
			return // a blocked grant must not be overtaken (see Tick)
		}
		head := l.snoops.Front()
		if head == nil || !l.acks.CanPush() {
			return
		}
		s := *head
		l.snoops.Drop()
		l.stats.Snoops++
		ack := snoopAck{key: s.key, seq: s.seq}
		if e := l.Tags.Probe(s.key); e != nil {
			ack.had = true
			ack.wasM = e.State == MesiM
			if ack.wasM {
				ack.val = l.Data.Read(l.Data.SectorWordBase(e.SectorBase))
			}
			switch s.kind {
			case snoopInval:
				l.Data.Free(e.SectorBase, e.SectorCount)
				l.Tags.Dealloc(e)
			case snoopDown:
				e.State = MesiS
				e.Dirty = false
			}
		}
		l.acks.MustPush(ack)
	}
}

// handleGrants installs directory grants and serves the waiting requests.
func (l *CohL1) handleGrants(cy sim.Cycle) {
	for {
		head := l.grants.Front()
		if head == nil || !l.evicts.CanPush() {
			return
		}
		g := *head
		l.grants.Drop()
		e := l.Tags.Probe(g.key)
		if e == nil {
			e = l.install(g.key, int(g.state), g.val)
		} else {
			// Upgrade in place: the Shared copy's value is already current
			// (the directory invalidated every writer before granting).
			e.State = int(g.state)
		}
		e.Dirty = g.state == MesiM
		if l.coh != nil {
			l.coh.observe(cy, l.Port, g.key, valGrant, g.val)
		}

		i := l.mshrs.find(g.key)
		if i < 0 {
			continue // grant for a dropped MSHR cannot happen; tolerate anyway
		}
		m := &l.mshrs.slots[i]
		done := true
		for j, w := range m.waiters {
			if w.Op.isStore() && e.State != MesiM {
				// A store queued behind a read grant: keep the Shared copy
				// and go back to the directory for ownership.
				m.waiters = m.waiters[:copy(m.waiters, m.waiters[j:])]
				l.issueQ = add(l.issueQ, dirReq{key: g.key, write: true}, "coherent L1 issue queue")
				l.stats.Upgrades++
				done = false
				break
			}
			l.serveNow(cy, e, w)
		}
		if done {
			m.live = false
		}
	}
}

// admit looks up one new request per cycle.
func (l *CohL1) admit(cy sim.Cycle) {
	head := l.ReqQ.Front()
	if head == nil {
		return
	}
	req := *head
	if req.Key[1] != 0 || req.Key[0] >= uint64(l.numKeys) {
		// The request stays at the head: nothing walks past the array.
		if l.err == nil {
			l.err = fmt.Errorf("hier: port %d request %d: key {%d,%d} outside the %d-key element array",
				l.Port, req.ID, req.Key[0], req.Key[1], l.numKeys)
		}
		return
	}
	if i := l.mshrs.find(req.Key); i >= 0 {
		m := &l.mshrs.slots[i]
		if len(m.waiters) >= l1MaxWaiters {
			return // backpressure: hold in the request queue
		}
		l.ReqQ.Drop()
		l.count(req.Op)
		// A store joining a read MSHR upgrades when its grant reaches it.
		m.waiters = add(m.waiters, req, "coherent L1 waiter list")
		return
	}
	e := l.Tags.Probe(req.Key)
	if e != nil && (e.State == MesiM || !req.Op.isStore()) {
		l.ReqQ.Drop()
		l.count(req.Op)
		l.Tags.Touch(e)
		l.Tags.Account(true)
		l.stats.Hits++
		l.serveNow(cy, e, req)
		return
	}
	if l.mshrs.live() == l1MaxOutstanding {
		return
	}
	l.ReqQ.Drop()
	l.count(req.Op)
	if e != nil {
		l.stats.Upgrades++ // store hit Shared: request ownership, keep the copy
	} else {
		l.stats.Misses++
	}
	l.mshrs.open(req.Key, req)
	l.issueQ = add(l.issueQ, dirReq{key: req.Key, write: req.Op.isStore()}, "coherent L1 issue queue")
}

func (l *CohL1) count(op CohOp) {
	if op.isStore() {
		l.stats.Stores++
	} else {
		l.stats.Loads++
	}
}

// serveNow applies one request against a resident entry and schedules its
// response. Stores require M (guaranteed by the callers).
func (l *CohL1) serveNow(cy sim.Cycle, e *metatag.Entry, req CohReq) {
	w := l.Data.SectorWordBase(e.SectorBase)
	v := l.Data.Read(w)
	if req.Op.isStore() {
		switch req.Op {
		case OpStore:
			v = req.Payload
		case OpMerge:
			v += req.Payload
		case OpMergeMin:
			if req.Payload < v {
				v = req.Payload
			}
		}
		l.Data.Write(w, v)
		e.Dirty = true
		if l.coh != nil {
			l.coh.observe(cy, l.Port, req.Key, valStore, v)
		}
	} else if l.coh != nil {
		l.coh.observe(cy, l.Port, req.Key, valHit, v)
	}
	l.pend = append(l.pend, cohPending{readyAt: cy + sim.Cycle(l.Cfg.HitLatency),
		resp: CohResp{ID: req.ID, Value: v}})
}

// install allocates a granted line, notifying the directory of the victim
// it displaces (callers guarantee evicts.CanPush).
func (l *CohL1) install(key metatag.Key, state int, val uint64) *metatag.Entry {
	e, ev, ok := l.Tags.Alloc(key, state, metatag.NoWalker)
	if !ok {
		panic("hier: coherent L1 set full of transient entries")
	}
	if ev.Valid {
		msg := evictMsg{key: ev.Key, wasM: ev.Dirty}
		if ev.SectorCount > 0 {
			if msg.wasM {
				msg.val = l.Data.Read(l.Data.SectorWordBase(ev.SectorBase))
			}
			l.Data.Free(ev.SectorBase, ev.SectorCount)
		}
		l.evicts.MustPush(msg)
		l.stats.Evictions++
	}
	base, ok := l.Data.Alloc(1)
	if !ok {
		panic("hier: coherent L1 data RAM exhausted (sectors must cover sets×ways)")
	}
	e.SectorBase = base
	e.SectorCount = 1
	l.Data.Write(l.Data.SectorWordBase(base), val)
	return e
}
