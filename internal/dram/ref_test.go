package dram

// Reference scheduler for the lockstep differential test (diff_test.go):
// the window-scan FR-FCFS-lite channel that per-bank scheduling replaced,
// kept verbatim apart from its name. Every observable it produces must
// match the production channel on every cycle.

import (
	"fmt"

	"xcache/internal/mem"
	"xcache/internal/payload"
	"xcache/internal/sim"
)

// refPending is one admitted request of the reference channel.
type refPending struct {
	req      Request
	arrived  sim.Cycle
	started  bool
	complete sim.Cycle
}

// refDRAM is the channel as it was before per-bank scheduling: issue
// walks the whole window for every idle bank and decodes every address
// it looks at, and the completion pass walks the window every cycle.
type refDRAM struct {
	Cfg  Config
	Req  *sim.Queue[Request]
	Resp *sim.Queue[Response]

	// Faults, when non-nil, injects dropped/delayed read responses.
	Faults FaultInjector

	// Disrupt, when non-nil, injects channel-level fault episodes
	// (outage, issue stall, burst latency).
	Disrupt Disruptor

	img        *mem.Image
	banks      []bank
	window     []*refPending
	busFree    sim.Cycle
	stats      Stats
	respHold   []Response    // completed but response queue was full
	delayed    []delayedResp // fault-injected response delays
	burstExtra int           // this tick's burst-latency hold (Disruptor)
	strict     bool          // timing-protocol assertions enabled
	protoErr   error         // first protocol violation observed
	pool       payload.Pool  // lends long read payloads
}

// newRef creates a reference channel over img and registers it with k.
func newRef(k *sim.Kernel, cfg Config, img *mem.Image) *refDRAM {
	if cfg.Banks <= 0 || cfg.RowBytes == 0 {
		panic("dram: invalid geometry")
	}
	name := cfg.Name
	if name == "" {
		name = "dram"
	}
	d := &refDRAM{
		Cfg:   cfg,
		Req:   sim.NewQueue[Request](k, name+".req", cfg.QueueDepth),
		Resp:  sim.NewQueue[Response](k, name+".resp", cfg.RespDepth),
		img:   img,
		banks: make([]bank, cfg.Banks),
	}
	for i := range d.banks {
		d.banks[i].openRow = -1
	}
	k.Add(d)
	return d
}

// Stats returns a copy of the lifetime statistics.
func (d *refDRAM) Stats() Stats { return d.stats }

// Pending reports the number of requests admitted but not yet completed.
func (d *refDRAM) Pending() int { return len(d.window) + len(d.respHold) + len(d.delayed) }

// Idle reports whether the channel has no queued or in-flight work.
func (d *refDRAM) Idle() bool {
	return d.Req.Len() == 0 && len(d.window) == 0 && len(d.respHold) == 0 && len(d.delayed) == 0
}

// CheckInvariants reports the first timing-protocol violation and any
// structural inconsistency in the scheduler state.
func (d *refDRAM) CheckInvariants(c sim.Cycle) error {
	if d.protoErr != nil {
		return d.protoErr
	}
	if len(d.window) > d.Cfg.WindowDepth {
		return fmt.Errorf("dram: scheduler window %d exceeds depth %d", len(d.window), d.Cfg.WindowDepth)
	}
	for _, p := range d.window {
		if p.started && p.complete > d.busFree {
			return fmt.Errorf("dram: request %#x completes at %d after bus frees at %d", p.req.Addr, p.complete, d.busFree)
		}
	}
	return nil
}

// Diagnose describes per-bank and scheduler state for stall reports.
func (d *refDRAM) Diagnose() []string {
	var out []string
	out = append(out, fmt.Sprintf("window %d/%d, respHold %d, delayed %d, busFree @%d",
		len(d.window), d.Cfg.WindowDepth, len(d.respHold), len(d.delayed), d.busFree))
	for i := range d.banks {
		b := &d.banks[i]
		state := "closed"
		if b.openRow >= 0 {
			state = fmt.Sprintf("row %d open", b.openRow)
		}
		out = append(out, fmt.Sprintf("bank %d: %s, busy until %d", i, state, b.busyUntil))
	}
	for _, p := range d.window {
		tag := "queued"
		if p.started {
			tag = fmt.Sprintf("completes @%d", p.complete)
		}
		out = append(out, fmt.Sprintf("req id=%d addr=%#x words=%d arrived @%d (%s)",
			p.req.ID, p.req.Addr, p.req.Words, p.arrived, tag))
	}
	return out
}

func (d *refDRAM) mapAddr(addr uint64) (bankIdx int, row int64) {
	rowGlobal := addr / d.Cfg.RowBytes
	return int(rowGlobal % uint64(d.Cfg.Banks)), int64(rowGlobal / uint64(d.Cfg.Banks))
}

// Tick implements sim.Component.
func (d *refDRAM) Tick(c sim.Cycle) {
	stalled := false
	d.burstExtra = 0
	if d.Disrupt != nil {
		frozen, st, extra := d.Disrupt.ChannelState(c)
		if frozen {
			// Hard outage: the channel does nothing. Requests pile up in
			// Req, completed-but-undelivered work sits where it is, and
			// in-flight completion times simply pass unobserved (their
			// responses deliver on the first healthy cycle after the
			// episode). The layer above is expected to notice the silence
			// and fail over.
			d.stats.OutageCycles++
			return
		}
		stalled, d.burstExtra = st, extra
		if stalled {
			d.stats.StallCycles++
		}
	}

	// Release fault-delayed responses whose hold expired.
	if len(d.delayed) > 0 {
		keep := d.delayed[:0]
		for _, dr := range d.delayed {
			if dr.readyAt <= c {
				d.deliver(dr.resp)
				continue
			}
			keep = append(keep, dr)
		}
		d.delayed = keep
	}

	// Retry responses that were blocked on a full response queue.
	for len(d.respHold) > 0 {
		if !d.Resp.Push(d.respHold[0]) {
			break
		}
		d.respHold = d.respHold[1:]
	}

	// Admit new requests into the scheduling window.
	for len(d.window) < d.Cfg.WindowDepth {
		req, ok := d.Req.Pop()
		if !ok {
			break
		}
		d.window = append(d.window, &refPending{req: req, arrived: c})
	}
	if p := d.Pending(); p > d.stats.PeakPending {
		d.stats.PeakPending = p
	}

	// Issue: for each idle bank, pick the oldest pending request targeting
	// it, preferring row hits (FR-FCFS-lite). A stall episode suppresses
	// issue entirely — admitted requests wait in the window.
	if !stalled {
		d.issue(c)
	}

	// Complete.
	remaining := d.window[:0]
	for _, p := range d.window {
		if !p.started || p.complete > c {
			remaining = append(remaining, p)
			continue
		}
		d.finish(p, c)
	}
	d.window = remaining
}

// issue picks, for each idle bank, the oldest pending request targeting
// it, preferring row hits (FR-FCFS-lite), and schedules it on the shared
// data bus.
func (d *refDRAM) issue(c sim.Cycle) {
	for bi := range d.banks {
		b := &d.banks[bi]
		if b.busyUntil > c {
			continue
		}
		var pick *refPending
		for _, p := range d.window {
			if p.started {
				continue
			}
			pb, prow := d.mapAddr(p.req.Addr)
			if pb != bi {
				continue
			}
			if pick == nil {
				pick = p
				continue
			}
			_, pickRow := d.mapAddr(pick.req.Addr)
			if prow == b.openRow && pickRow != b.openRow {
				pick = p
			}
		}
		if pick == nil {
			continue
		}
		_, row := d.mapAddr(pick.req.Addr)
		lat := d.Cfg.ChannelFixed + d.Cfg.TCAS
		issue := c + sim.Cycle(d.Cfg.ChannelFixed)
		switch {
		case b.openRow == row:
			d.stats.RowHits++
			if d.strict && b.openRow >= 0 && issue < b.lastAct+sim.Cycle(d.Cfg.TRCD) {
				d.violate("CAS to bank %d at %d before tRCD elapses (ACT at %d, tRCD %d)",
					bi, issue, b.lastAct, d.Cfg.TRCD)
			}
		case b.openRow == -1:
			d.stats.RowMisses++
			lat += d.Cfg.TRCD
			// A never-precharged bank (cold start) has no tRP window.
			if d.strict && b.preValid && issue < b.lastPre+sim.Cycle(d.Cfg.TRP) {
				d.violate("ACT to bank %d at %d before tRP elapses (PRE at %d, tRP %d)",
					bi, issue, b.lastPre, d.Cfg.TRP)
			}
			b.lastAct = issue
		default:
			// Row conflict: precharge at issue, activate tRP later.
			d.stats.RowMisses++
			lat += d.Cfg.TRP + d.Cfg.TRCD
			b.lastPre = issue
			b.preValid = true
			b.lastAct = issue + sim.Cycle(d.Cfg.TRP)
		}
		if d.strict && b.busyUntil > c {
			d.violate("issue to busy bank %d at cycle %d (busy until %d)", bi, c, b.busyUntil)
		}
		b.openRow = row
		burst := pick.req.Words * d.Cfg.TBusPerWord
		if burst < 1 {
			burst = 1
		}
		// Serialize bursts on the shared data bus.
		dataStart := c + sim.Cycle(lat)
		if d.busFree > dataStart {
			dataStart = d.busFree
		}
		d.busFree = dataStart + sim.Cycle(burst)
		d.stats.BusBusy += uint64(burst)
		pick.started = true
		pick.complete = d.busFree
		b.busyUntil = d.busFree
	}
}

// violate records the first timing-protocol violation.
func (d *refDRAM) violate(format string, args ...any) {
	if d.protoErr == nil {
		d.protoErr = fmt.Errorf("dram: "+format, args...)
	}
}

func (d *refDRAM) finish(p *refPending, c sim.Cycle) {
	d.stats.TotalLatency += uint64(c - p.arrived)
	resp := Response{ID: p.req.ID, Addr: p.req.Addr}
	if p.req.Write {
		d.stats.Writes++
		if p.req.Data.Len() != p.req.Words {
			panic(fmt.Sprintf("dram: write %#x has %d data words, want %d", p.req.Addr, p.req.Data.Len(), p.req.Words))
		}
		d.img.WriteWords(p.req.Addr, p.req.Data.Slice())
		p.req.Data.Release()
	} else {
		d.stats.Reads++
		d.stats.WordsRead += uint64(p.req.Words)
		d.img.ReadWords(p.req.Addr, resp.Data.Make(&d.pool, p.req.Words))
		if d.Faults != nil {
			drop, delay := d.Faults.ReadResponse(resp, c)
			if drop {
				d.stats.DroppedResps++
				resp.Data.Release()
				return
			}
			if delay > 0 {
				d.stats.DelayedResps++
				d.delayed = append(d.delayed, delayedResp{readyAt: c + sim.Cycle(delay), resp: resp})
				return
			}
		}
	}
	// A burst-latency episode holds every response completing this cycle
	// (reads and write acks alike) back by the episode's extra delay.
	if d.burstExtra > 0 {
		d.stats.BurstDelays++
		d.delayed = append(d.delayed, delayedResp{readyAt: c + sim.Cycle(d.burstExtra), resp: resp})
		return
	}
	d.deliver(resp)
}

// deliver pushes a response, spilling to respHold when the queue is full.
func (d *refDRAM) deliver(resp Response) {
	if !d.Resp.Push(resp) {
		d.respHold = append(d.respHold, resp)
	}
}
