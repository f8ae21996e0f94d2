package hier

import (
	"fmt"

	"xcache/internal/check"
	"xcache/internal/core"
	"xcache/internal/ctrl"
	"xcache/internal/dram"
	"xcache/internal/energy"
	"xcache/internal/mem"
	"xcache/internal/metatag"
	"xcache/internal/payload"
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

// Transaction phases; a line whose transaction is in phase 0 has none.
const (
	phSnoop uint8 = iota + 1 // waiting for snoop acks (and a recalled value)
	phL2                     // waiting for the L2's MetaLoad answer
	phGrant                  // waiting for room in the requester's grant queue
)

// dirTxn is a key's transaction. A key has at most one at a time
// (intake and startBackInvals both wait while it is busy), so it lives
// in the key's dirLine.
type dirTxn struct {
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
	txn       dirTxn
	pendingBI bool
	l2Ops     int // outstanding writeback MetaStores for this key
}

// busy reports whether the key has a transaction in flight.
func (ln *dirLine) busy() bool { return ln.txn.phase != 0 }

func (ln *dirLine) copies() uint64 {
	m := ln.sharers
	if ln.owner >= 0 {
		m |= 1 << uint(ln.owner)
	}
	return m
}

// snoopRec is one outstanding snoop of the transaction on key.
type snoopRec struct {
	seq     uint64
	sent    sim.Cycle
	key     int
	port    int
	retries int
	kind    uint8
}

// Keys travel between the L1s and the directory as metatag.Keys; the
// directory indexes its tables by the first word. Every key in the
// hierarchy entered through CohL1.admit, which refuses a second word and
// any first word at or above the element array's key count.
func keyIndex(k metatag.Key) int { return int(k[0]) }

func keyOf(i int) metatag.Key { return metatag.Key{uint64(i), 0} }

// dirWBBit marks the directory's L2 writebacks on ctrl.MetaReq IDs; the
// low bits carry the key, for loads and writebacks alike (request-ID
// layout: DESIGN.md §9).
const dirWBBit = uint64(1) << 63

// add appends v to a list whose capacity was fixed when the system was
// built. Outgrowing it means the bound stated beside the list is wrong,
// so it panics rather than grow.
func add[T any](list []T, v T, name string) []T {
	if len(list) == cap(list) {
		panic("hier: " + name + " outgrew its capacity")
	}
	return append(list, v)
}

// Directory serializes coherence transactions: at most one in flight per
// key, each a short script of snoops, an optional L2 access, and a grant.
// It is the L2 controller's only client, so per-key ordering through the
// shared level follows from its single request FIFO.
type Directory struct {
	ports  []*CohL1
	l2     *ctrl.Controller
	bridge *memBridge

	// State tables, sized by newDirectory from the port count and the
	// element array's key count (CohConfig.NumKeys).
	lines  []dirLine  // one per key: NumKeys
	txns   []int      // keys in transaction, in start order: one per key, so NumKeys
	snoops []snoopRec // in send order: a transaction snoops each port at most once, so NumKeys × ports
	biQ    []int      // keys awaiting a recall: pendingBI admits each once, so NumKeys
	l2Out  []ctrl.MetaReq

	coh *cohCheck // the protocol self-check, nil until EnableProtocolCheck

	snoopSeq uint64
	rng      uint64
	faults   CohFaults
	rr       int // intake round-robin cursor
	err      error
	stats    CohStats
}

func newDirectory(k *sim.Kernel, l2 *ctrl.Controller, bridge *memBridge, cfg CohConfig) *Directory {
	d := &Directory{
		l2:     l2,
		bridge: bridge,
		lines:  make([]dirLine, cfg.NumKeys),
		txns:   make([]int, 0, cfg.NumKeys),
		snoops: make([]snoopRec, 0, cfg.NumKeys*cfg.Ports),
		biQ:    make([]int, 0, cfg.NumKeys),
		faults: cfg.Faults,
		rng:    check.Mix64(cfg.Faults.Seed ^ 0x8b4d_17f3_a02c_55e9),
	}
	for i := range d.lines {
		d.lines[i].owner = -1
	}
	k.Add(d)
	return d
}

// Stats returns a copy of the statistics.
func (d *Directory) Stats() CohStats { return d.stats }

// Idle reports whether no transaction, snoop, or L2 access is in flight.
func (d *Directory) Idle() bool {
	if len(d.txns) != 0 || len(d.biQ) != 0 || len(d.l2Out) != 0 || len(d.snoops) != 0 {
		return false
	}
	for i := range d.lines {
		if d.lines[i].l2Ops != 0 {
			return false
		}
	}
	return true
}

// ActivityCount implements the watchdog's progress counter.
func (d *Directory) ActivityCount() uint64 {
	s := &d.stats
	return s.Txns + s.Grants + s.Invals + s.Downgrades + s.Writebacks + s.SnoopRetry
}

// CheckInvariants implements the check package's per-cycle self-audit.
// It returns the latched liveness violation, if any; once
// EnableProtocolCheck has run, then the first stale value a port served,
// then the first single-writer or inclusion violation in key order.
func (d *Directory) CheckInvariants(cy sim.Cycle) error {
	if d.err != nil || d.coh == nil {
		return d.err
	}
	if d.coh.stale != nil {
		return d.coh.stale
	}
	return d.audit(cy)
}

// DiagnoseName implements check.Diagnoser.
func (d *Directory) DiagnoseName() string { return "coh-directory" }

// Diagnose implements check.Diagnoser.
func (d *Directory) Diagnose() []string {
	out := []string{fmt.Sprintf("%d keys, %d txns, %d snoops outstanding, %d back-invals queued",
		len(d.lines), len(d.txns), len(d.snoops), len(d.biQ))}
	for _, key := range d.txns {
		t := &d.lines[key].txn
		out = append(out, fmt.Sprintf("txn key=%d port=%d write=%v bi=%v phase=%d acks=%d needVal=%v haveVal=%v",
			key, t.port, t.write, t.isBI, t.phase, t.pending, t.needVal, t.haveVal))
	}
	return out
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
	n := 0
	for n < len(d.l2Out) && d.l2.ReqQ.CanPush() {
		d.l2.ReqQ.MustPush(d.l2Out[n])
		n++
	}
	d.l2Out = d.l2Out[:copy(d.l2Out, d.l2Out[n:])]
}

func (d *Directory) drainL2Resps() {
	for {
		resp, ok := d.l2.RespQ.Pop()
		if !ok {
			return
		}
		resp.Data.Release() // the directory reads Value only
		key := resp.ID &^ dirWBBit
		if key >= uint64(len(d.lines)) {
			panic(fmt.Sprintf("hier: directory got L2 response for unknown id %d", resp.ID))
		}
		ln := &d.lines[key]
		if resp.ID&dirWBBit != 0 {
			ln.l2Ops--
			continue
		}
		if ln.txn.phase != phL2 || ln.txn.haveL2 {
			panic(fmt.Sprintf("hier: directory got L2 response for key %d with no load outstanding", key))
		}
		ln.txn.haveL2 = true
		ln.txn.val = resp.Value
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
			key := keyIndex(ev.key)
			ln := &d.lines[key]
			ln.sharers &^= 1 << uint(p)
			if ln.owner == p {
				ln.owner = -1
			}
			if ev.wasM {
				// The silently evicted M value is the newest copy. A busy
				// transaction waiting on it (its snoop will find nothing)
				// adopts it and performs the writeback itself; otherwise
				// the directory writes it back into the L2 here.
				if ln.busy() && ln.txn.needVal && !ln.txn.haveVal {
					ln.txn.val = ev.val
					ln.txn.haveVal = true
				} else {
					d.writeback(key, ev.val)
				}
			}
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
			rec, ok := d.takeSnoop(ack.seq)
			if !ok {
				continue // late duplicate from a retried snoop
			}
			ln := &d.lines[rec.key]
			t := &ln.txn
			t.pending--
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
			if ack.had && ack.wasM && !t.haveVal {
				t.val = ack.val
				t.haveVal = true
			}
		}
	}
}

// takeSnoop removes and returns the outstanding record for seq.
func (d *Directory) takeSnoop(seq uint64) (snoopRec, bool) {
	for i, r := range d.snoops {
		if r.seq == seq {
			d.snoops = append(d.snoops[:i], d.snoops[i+1:]...)
			return r, true
		}
	}
	return snoopRec{}, false
}

func (d *Directory) retrySnoops(cy sim.Cycle) {
	for i := range d.snoops {
		r := &d.snoops[i]
		if cy-r.sent < snoopTimeout {
			continue
		}
		r.retries++
		if r.retries > maxSnoopRetries {
			if d.err == nil {
				d.err = &check.CoherenceViolation{Cycle: cy, Rule: "liveness", Key: [2]uint64(keyOf(r.key)),
					Detail: fmt.Sprintf("snoop to port %d unacknowledged after %d retries", r.port, maxSnoopRetries)}
			}
			continue
		}
		d.stats.SnoopRetry++
		r.sent = cy
		d.push(r)
	}
}

// sendSnoop records and (fault permitting) delivers one snoop for key's
// transaction.
func (d *Directory) sendSnoop(cy sim.Cycle, port, key int, kind uint8) {
	d.snoopSeq++
	d.snoops = add(d.snoops, snoopRec{seq: d.snoopSeq, port: port, key: key, kind: kind, sent: cy}, "directory snoop table")
	d.lines[key].txn.pending++
	if kind == snoopInval {
		d.stats.Invals++
	} else {
		d.stats.Downgrades++
	}
	d.push(&d.snoops[len(d.snoops)-1])
}

// push attempts delivery of a recorded snoop; an injected drop or a full
// queue leaves it to the retry timer.
func (d *Directory) push(r *snoopRec) {
	if d.faults.DropSnoop > 0 && d.roll() < d.faults.DropSnoop {
		d.stats.SnoopDrops++
		return
	}
	if q := d.ports[r.port].snoops; q.CanPush() {
		q.MustPush(snoopMsg{key: keyOf(r.key), kind: r.kind, seq: r.seq})
	}
}

// writeback pushes a recalled Modified value into the L2 (write-allocate:
// this also restores inclusion after an L2 eviction raced the recall).
func (d *Directory) writeback(key int, val uint64) {
	d.lines[key].l2Ops++
	d.l2Out = append(d.l2Out, ctrl.MetaReq{ID: dirWBBit | uint64(key), Op: ctrl.MetaStore, Key: keyOf(key), Payload: val})
	d.stats.Writebacks++
}

func (d *Directory) advanceTxns() {
	keep := d.txns[:0]
	for _, key := range d.txns {
		ln := &d.lines[key]
		t := &ln.txn
		if t.phase == phSnoop && t.pending == 0 && (!t.needVal || t.haveVal) {
			if t.haveVal {
				if t.isBI {
					// The line left the L2; its newest value goes to the
					// element's home address, not back into the cache.
					d.bridge.flush(key, t.val)
					d.stats.Flushes++
				} else {
					d.writeback(key, t.val)
				}
			}
			switch {
			case t.isBI:
				t.phase = 0
				ln.pendingBI = false
				continue
			case t.haveVal:
				t.phase = phGrant
			default:
				t.phase = phL2
				d.l2Out = append(d.l2Out, ctrl.MetaReq{ID: uint64(key), Op: ctrl.MetaLoad, Key: keyOf(key)})
			}
		}
		if t.phase == phL2 && t.haveL2 {
			t.phase = phGrant
		}
		if t.phase == phGrant {
			l1 := d.ports[t.port]
			if l1.grants.CanPush() {
				state := int8(MesiS)
				if t.write {
					state = MesiM
					ln.owner = t.port
					ln.sharers = 0
				} else {
					ln.sharers |= 1 << uint(t.port)
				}
				l1.grants.MustPush(dirGrant{key: keyOf(key), state: state, val: t.val})
				d.stats.Grants++
				t.phase = 0
				// A back-inval flagged while the transaction ran stays
				// flagged: whether it is moot (the transaction's own L2
				// access re-established the line) is decided by
				// startBackInvals against the L2's actual tag state — the
				// L2 may have evicted the line again after our refill.
				continue
			}
		}
		keep = append(keep, key)
	}
	d.txns = keep
}

// startBackInvals launches inclusion recalls for lines the L2 evicted
// while L1 copies were live.
func (d *Directory) startBackInvals(cy sim.Cycle) {
	rest := d.biQ[:0]
	for _, key := range d.biQ {
		ln := &d.lines[key]
		if !ln.pendingBI {
			continue
		}
		// The L2's tag array is the ground truth for inclusion: a recall
		// is moot once the line is back (a transaction's refill or an
		// eviction writeback re-allocated it — transient entries count,
		// their walker completes into a stable line).
		if d.l2.Tags.Probe(keyOf(key)) != nil {
			ln.pendingBI = false
			continue
		}
		// Wait out a busy transaction or an in-flight writeback for the
		// key: either re-establishes the line, re-deciding the recall.
		if ln.busy() || ln.l2Ops > 0 {
			rest = append(rest, key)
			continue
		}
		if ln.copies() == 0 {
			ln.pendingBI = false
			continue
		}
		ln.txn = dirTxn{isBI: true, port: -1, phase: phSnoop, needVal: ln.owner >= 0}
		d.txns = add(d.txns, key, "directory transaction list")
		d.stats.BackInvals++
		for p := 0; p < len(d.ports); p++ {
			if ln.copies()&(1<<uint(p)) != 0 {
				d.sendSnoop(cy, p, key, snoopInval)
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
		head := d.ports[p].dirQ.Front()
		if head == nil {
			continue
		}
		req := *head
		key := keyIndex(req.key)
		ln := &d.lines[key]
		if ln.busy() || ln.pendingBI {
			continue // head-of-line: per-key order is the protocol's backbone
		}
		d.ports[p].dirQ.Drop()
		ln.txn = dirTxn{port: p, write: req.write, phase: phSnoop}
		t := &ln.txn
		d.txns = add(d.txns, key, "directory transaction list")
		d.stats.Txns++
		if req.write {
			for q := 0; q < n; q++ {
				if q != p && ln.copies()&(1<<uint(q)) != 0 {
					d.sendSnoop(cy, q, key, snoopInval)
				}
			}
			t.needVal = ln.owner >= 0 && ln.owner != p
		} else if ln.owner >= 0 && ln.owner != p {
			d.sendSnoop(cy, ln.owner, key, snoopDown)
			t.needVal = true
		}
	}
	d.rr = (d.rr + 1) % n
}

// --- the protocol self-check ---

// keyCheck is one key's state in the protocol self-check: its value
// oracle, and the copies the last audit counted (reset as it finishes).
// Counts fit a byte: sharers is a uint64 mask, so there are at most 64
// ports.
type keyCheck struct {
	val     uint64 // the newest value a port was granted, served or stored
	seeded  bool   // val is set: the first grant, hit or store seeds it
	inL2    bool   // the L2 holds the line, stable or being filled
	mods    uint8  // L1 copies in M
	shared  uint8  // L1 copies in S
	modPort int8   // the port holding M, when mods is 1
}

// cohCheck is the hierarchy's coherence self-check: the value oracle
// every port feeds, and the audit's per-key counts.
type cohCheck struct {
	keys  []keyCheck // one per key: NumKeys
	stale error      // the first stale value a port served, latched
}

// The values a port feeds the oracle.
const (
	valGrant uint8 = iota // a grant's value, as the line is installed or upgraded
	valHit                // a load served from a resident line
	valStore              // the post-store value of a store applied under M
)

// testHookCohValue, when non-nil, sees every value fed to an oracle, as
// it is fed. The package's tests set it to drive a reference checker.
var testHookCohValue func(o *cohCheck, cy sim.Cycle, port int, key metatag.Key, kind uint8, v uint64)

// observe feeds the oracle one value port handled at cycle cy. A store
// sets the key's value; the first grant or hit of a key seeds it (the
// oracle does not read the backing image), and every later one must
// match it.
func (o *cohCheck) observe(cy sim.Cycle, port int, key metatag.Key, kind uint8, v uint64) {
	if testHookCohValue != nil {
		testHookCohValue(o, cy, port, key, kind, v)
	}
	k := &o.keys[keyIndex(key)]
	switch {
	case kind == valStore || !k.seeded:
		k.val, k.seeded = v, true
	case v != k.val && o.stale == nil:
		what := "grant"
		if kind == valHit {
			what = "hit"
		}
		o.stale = &check.CoherenceViolation{Cycle: cy, Rule: "no-stale-fill", Key: [2]uint64(key),
			Detail: fmt.Sprintf("port %d %s served value %d, oracle holds %d", port, what, v, k.val)}
	}
}

// EnableProtocolCheck turns on the coherence self-check that
// CheckInvariants runs every cycle (check.Attach calls it): it sizes the
// per-key state and hands the value oracle to every port. An unchecked
// run keeps none of it.
func (d *Directory) EnableProtocolCheck() {
	d.coh = &cohCheck{keys: make([]keyCheck, len(d.lines))}
	for _, l1 := range d.ports {
		l1.coh = d.coh
	}
}

// audit reads the L1 and L2 tag arrays and returns the first
// single-writer or inclusion violation in key order. It leaves every
// count at zero, so a second call in the same cycle gives the same
// verdict.
func (d *Directory) audit(cy sim.Cycle) error {
	keys := d.coh.keys
	for p, l1 := range d.ports {
		l1.Tags.ForEach(func(e *metatag.Entry) {
			k := &keys[keyIndex(e.Key)]
			switch e.State {
			case MesiM:
				k.mods++
				k.modPort = int8(p)
			case MesiS:
				k.shared++
			}
		})
	}
	// A line the L2 is still filling counts: its walker completes into a
	// stable line.
	d.l2.Tags.ForEach(func(e *metatag.Entry) { keys[keyIndex(e.Key)].inL2 = true })
	var err error
	for i := range keys {
		k := &keys[i]
		if err == nil && k.mods+k.shared > 0 {
			err = d.ruleErr(cy, i, k)
		}
		k.mods, k.shared, k.inL2 = 0, 0, false
	}
	return err
}

// ruleErr checks one key an L1 holds against the single-writer and
// inclusion rules.
func (d *Directory) ruleErr(cy sim.Cycle, key int, k *keyCheck) error {
	var rule, detail string
	switch ln := &d.lines[key]; {
	case k.mods > 1:
		rule, detail = "single-writer", fmt.Sprintf("%d ports hold the line Modified", k.mods)
	case k.mods == 1 && k.shared > 0:
		rule, detail = "single-writer", fmt.Sprintf("port %d holds M while %d other ports hold S", k.modPort, k.shared)
	// A busy transaction, queued back-inval, or outstanding writeback
	// keeps the line in flight: every message window (grant, snoop,
	// ack, evict notice, queued L2 op) is covered by one of the three,
	// because each is cleared only after its counterpart lands.
	case !k.inL2 && !ln.busy() && !ln.pendingBI && ln.l2Ops == 0:
		rule, detail = "inclusion", "line cached in an L1 but absent from the L2 with no transaction in flight"
	default:
		return nil
	}
	return &check.CoherenceViolation{Cycle: cy, Rule: rule, Key: [2]uint64(keyOf(key)), Detail: detail}
}

// onL2Evict is the L2 controller's eviction hook: flush a dirty victim to
// its home address and schedule inclusion recalls for live L1 copies.
// Returning true takes ownership of the writeback (the controller skips
// its spill path).
func (d *Directory) onL2Evict(n ctrl.EvictNote) bool {
	key := keyIndex(n.Key)
	if n.Dirty && len(n.Words) > 0 {
		d.bridge.flush(key, n.Words[0])
		d.stats.Flushes++
	}
	ln := &d.lines[key]
	if (ln.copies() != 0 || ln.busy()) && !ln.pendingBI {
		ln.pendingBI = true
		d.biQ = add(d.biQ, key, "directory recall queue")
	}
	return true
}

// --- memBridge: the L2's memory port, plus home-address flushes ---

// flushIDBit tags bridge-originated DRAM writes; it sits below the L2
// controller's writeback flag (63), above its walker ids, and the low
// bits carry the key (request-ID layout: DESIGN.md §9).
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

	base     uint64
	flushQ   []dram.Request
	flushing []int // per key (NumKeys entries): flush writes not yet acknowledged
}

func newMemBridge(k *sim.Kernel, d *dram.DRAM, l2Req *sim.Queue[dram.Request],
	l2Resp *sim.Queue[dram.Response], numKeys int) *memBridge {
	b := &memBridge{d: d, l2Req: l2Req, l2Resp: l2Resp, flushing: make([]int, numKeys)}
	k.Add(b)
	return b
}

// flush registers a home-address write for key's value. The key is
// marked flushing synchronously, before the write is even issued, so a
// fill racing the flush is held from this cycle on.
func (b *memBridge) flush(key int, val uint64) {
	b.flushing[key]++
	b.flushQ = append(b.flushQ, dram.Request{ID: flushIDBit | uint64(key), Addr: b.base + uint64(key)*8,
		Words: 1, Write: true, Data: payload.Of(val)})
}

// Tick implements sim.Component.
func (b *memBridge) Tick(sim.Cycle) {
	for {
		resp := b.d.Resp.Front()
		if resp == nil {
			break
		}
		if resp.ID&flushIDBit != 0 {
			resp.Data.Release() // a flush's write acknowledgement
			b.flushing[resp.ID&^flushIDBit]--
			b.d.Resp.Drop()
			continue
		}
		if !b.l2Resp.CanPush() {
			break
		}
		b.l2Resp.MustPush(*resp)
		b.d.Resp.Drop()
	}
	n := 0
	for n < len(b.flushQ) && b.d.Req.CanPush() {
		b.d.Req.MustPush(b.flushQ[n])
		n++
	}
	b.flushQ = b.flushQ[:copy(b.flushQ, b.flushQ[n:])]
	for {
		req := b.l2Req.Front()
		if req == nil || !b.d.Req.CanPush() {
			break
		}
		if !req.Write && b.overlaps(req) {
			break // hold the fill until the flush it races is acknowledged
		}
		b.d.Req.MustPush(*req)
		b.l2Req.Drop()
	}
}

// overlaps reports whether a fill reads a key with a flush in flight.
// The L2's walker (cohArraySpec) reads only element words, so a fill's
// words index the key table.
func (b *memBridge) overlaps(req *dram.Request) bool {
	first := int((req.Addr - b.base) / 8)
	for w := 0; w < req.Words; w++ {
		if b.flushing[first+w] > 0 {
			return true
		}
	}
	return false
}

// --- the assembled coherent system ---

// CohConfig sizes a coherent hierarchy.
type CohConfig struct {
	Ports  int
	L1     L1Config
	L2Sets int
	L2Ways int

	NumKeys int // size of the backing element array (0 → 256)
	Faults  CohFaults
}

const (
	l2Active        = 8  // the shared L2's walker count (#Active)
	snoopTimeout    = 64 // cycles before an unacknowledged snoop is re-sent
	maxSnoopRetries = 8  // re-sends before the liveness violation latches
)

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
		KeyWords: 1, WordsPerSector: 1, NumActive: l2Active, NumExe: 2, RespDataWords: 1},
		cohArraySpec(), l2Req, l2Resp, meter)
	if err != nil {
		return nil, err
	}
	bridge := newMemBridge(k, d, l2Req, l2Resp, cfg.NumKeys)
	dir := newDirectory(k, l2.Ctrl, bridge, cfg)
	s := &CohSystem{K: k, Img: img, DRAM: d, L2: l2, Dir: dir, Meter: meter, Cfg: cfg}
	for p := 0; p < cfg.Ports; p++ {
		l1 := newCohL1(k, p, cfg.L1, cfg.NumKeys, meter)
		s.Ports = append(s.Ports, l1)
		dir.ports = append(dir.ports, l1)
	}
	s.Base = img.AllocWords(cfg.NumKeys)
	bridge.base = s.Base
	l2.SetEnv(0, s.Base)
	l2.Ctrl.SetEvictHook(dir.onL2Evict)
	if testHookNewCohSystem != nil {
		testHookNewCohSystem(s)
	}
	return s, nil
}

// testHookNewCohSystem, when non-nil, is called with every system
// NewCohSystem builds. The package's tests set it to compare the
// directory's coherence verdict with a reference after every cycle.
var testHookNewCohSystem func(*CohSystem)

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

// Err surfaces the directory's latched protocol violation or a port's
// latched out-of-range request, if any.
func (s *CohSystem) Err() error {
	if s.Dir.err != nil {
		return s.Dir.err
	}
	for _, p := range s.Ports {
		if p.err != nil {
			return p.err
		}
	}
	return nil
}
