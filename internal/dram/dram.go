// Package dram models the off-chip memory the paper attaches through
// DRAMsim2. It is a bank/row-buffer timing model: requests queue at the
// channel, banks hold an open row, and service latency is composed from
// tRCD/tCAS/tRP plus a per-word burst time on a shared data bus. Responses
// carry real data served from the mem.Image, so cache walkers consume
// genuine pointer chains and matrix rows.
package dram

import (
	"fmt"

	"xcache/internal/mem"
	"xcache/internal/sim"
)

// Request is a memory read or write issued by a cache controller.
type Request struct {
	ID    uint64   // opaque caller tag, echoed in the Response (layout: DESIGN.md §9)
	Addr  uint64   // byte address, word aligned
	Words int      // number of 8-byte words
	Write bool     // true for writebacks
	Data  []uint64 // write payload (len == Words)
}

// Response completes a Request. Writes are acknowledged with Data nil.
type Response struct {
	ID   uint64
	Addr uint64
	Data []uint64
}

// Config sets the channel geometry and timing (in controller cycles).
type Config struct {
	// Name labels the channel's queues and stall-report entries; empty
	// means "dram". Multi-channel topologies must name each channel so
	// queue diagnostics (and the fault injector's per-queue clog streams,
	// which hash queue names) stay distinguishable.
	Name         string
	Banks        int    // number of banks on the channel
	RowBytes     uint64 // row-buffer size per bank
	TRCD         int    // activate → column command
	TCAS         int    // column command → first data
	TRP          int    // precharge time (row conflict penalty)
	TBusPerWord  int    // data-bus cycles per 8-byte word
	ChannelFixed int    // fixed command/queueing overhead per access
	QueueDepth   int    // request queue capacity
	RespDepth    int    // response queue capacity
	WindowDepth  int    // scheduler window (pending requests considered)
}

// DefaultConfig models a single DDR-like channel clocked against a 1 GHz
// controller: a closed-bank random access costs ≈ 40–60 cycles.
func DefaultConfig() Config {
	return Config{
		Banks:        8,
		RowBytes:     2048,
		TRCD:         14,
		TCAS:         14,
		TRP:          14,
		TBusPerWord:  1,
		ChannelFixed: 6,
		QueueDepth:   64,
		RespDepth:    64,
		WindowDepth:  32,
	}
}

// Stats aggregates lifetime activity.
type Stats struct {
	Reads        uint64
	Writes       uint64
	RowHits      uint64
	RowMisses    uint64 // closed bank or conflict
	WordsRead    uint64
	WordsWritten uint64
	BusBusy      uint64 // cycles the data bus transferred
	TotalLatency uint64 // sum of (complete - enqueue) over all requests

	// Fault-injection accounting (zero unless a FaultInjector is set).
	DroppedResps uint64 // read responses suppressed by the injector
	DelayedResps uint64 // read responses held back by the injector

	// Channel-fault accounting (zero unless a Disruptor is set).
	OutageCycles uint64 // cycles the whole channel was frozen
	StallCycles  uint64 // cycles bank issue was suppressed
	BurstDelays  uint64 // responses held back by burst-latency episodes

	// PeakPending is the high-water mark of admitted-but-incomplete
	// requests (scheduler window + held + fault-delayed responses): the
	// channel-pressure gauge service layers watch for overload.
	PeakPending int
}

// Accesses returns total read+write requests served.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// AvgLatency returns the mean request latency in cycles.
func (s Stats) AvgLatency() float64 {
	n := s.Accesses()
	if n == 0 {
		return 0
	}
	return float64(s.TotalLatency) / float64(n)
}

type bank struct {
	openRow   int64 // -1 when closed
	busyUntil sim.Cycle
	lastPre   sim.Cycle // scheduled precharge start of the last conflict
	lastAct   sim.Cycle // scheduled activate of the last row open
	preValid  bool      // lastPre holds a real precharge (not cold-start zero)
}

type pending struct {
	req      Request
	arrived  sim.Cycle
	started  bool
	complete sim.Cycle
}

// FaultInjector decides per-response faults. Implementations must be
// deterministic functions of (request, cycle) so runs replay from a seed.
type FaultInjector interface {
	// ReadResponse is consulted once per completed read. drop suppresses
	// the response entirely (the requester's timeout/retry path must
	// recover); delay holds it back the given number of cycles.
	ReadResponse(r Response, c sim.Cycle) (drop bool, delay int)
}

type delayedResp struct {
	readyAt sim.Cycle
	resp    Response
}

// Disruptor models channel-level fault state, consulted once at the top
// of every tick. Implementations must be deterministic functions of the
// cycle so runs replay from a seed. The three degrees of disruption:
// frozen is a hard outage (the channel does nothing at all — nothing
// admitted, issued, completed or delivered); stalled suppresses bank
// issue but lets already-completed work drain; extraDelay holds every
// response completing this cycle back by that many extra cycles (burst
// latency).
type Disruptor interface {
	ChannelState(c sim.Cycle) (frozen, stalled bool, extraDelay int)
}

// DRAM is the channel component. Push requests to Req; pop completions
// from Resp.
type DRAM struct {
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
	window     []*pending
	busFree    sim.Cycle
	stats      Stats
	respHold   []Response    // completed but response queue was full
	delayed    []delayedResp // fault-injected response delays
	burstExtra int           // this tick's burst-latency hold (Disruptor)
	strict     bool          // timing-protocol assertions enabled
	protoErr   error         // first protocol violation observed
}

// New creates a DRAM channel over the given memory image and registers it
// with the kernel.
func New(k *sim.Kernel, cfg Config, img *mem.Image) *DRAM {
	if cfg.Banks <= 0 || cfg.RowBytes == 0 {
		panic("dram: invalid geometry")
	}
	name := cfg.Name
	if name == "" {
		name = "dram"
	}
	d := &DRAM{
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
func (d *DRAM) Stats() Stats { return d.stats }

// Pending reports the number of requests admitted but not yet completed.
func (d *DRAM) Pending() int { return len(d.window) + len(d.respHold) + len(d.delayed) }

// Idle reports whether the channel has no queued or in-flight work.
func (d *DRAM) Idle() bool {
	return d.Req.Len() == 0 && len(d.window) == 0 && len(d.respHold) == 0 && len(d.delayed) == 0
}

// EnableProtocolCheck turns on the DDR timing-protocol assertions: every
// issued access must schedule its column command at least tRCD after the
// activate, its activate at least tRP after the precharge it follows, and
// must not start while the bank is busy. Violations are reported through
// CheckInvariants rather than panicking mid-tick.
func (d *DRAM) EnableProtocolCheck() { d.strict = true }

// CheckInvariants reports the first timing-protocol violation and any
// structural inconsistency in the scheduler state.
func (d *DRAM) CheckInvariants(c sim.Cycle) error {
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

// ActivityCount returns a monotonic progress counter the deadlock
// watchdog folds into its forward-progress signature.
func (d *DRAM) ActivityCount() uint64 {
	return d.stats.Reads + d.stats.Writes + d.stats.RowHits + d.stats.RowMisses
}

// DiagnoseName labels this component in stall reports: the channel's
// Cfg.Name, so multi-channel topologies stay tellable apart.
func (d *DRAM) DiagnoseName() string {
	if d.Cfg.Name != "" {
		return d.Cfg.Name
	}
	return "dram"
}

// Diagnose describes per-bank and scheduler state for stall reports.
func (d *DRAM) Diagnose() []string {
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

func (d *DRAM) mapAddr(addr uint64) (bankIdx int, row int64) {
	rowGlobal := addr / d.Cfg.RowBytes
	return int(rowGlobal % uint64(d.Cfg.Banks)), int64(rowGlobal / uint64(d.Cfg.Banks))
}

// Tick implements sim.Component.
func (d *DRAM) Tick(c sim.Cycle) {
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
		d.window = append(d.window, &pending{req: req, arrived: c})
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
func (d *DRAM) issue(c sim.Cycle) {
	for bi := range d.banks {
		b := &d.banks[bi]
		if b.busyUntil > c {
			continue
		}
		var pick *pending
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
func (d *DRAM) violate(format string, args ...any) {
	if d.protoErr == nil {
		d.protoErr = fmt.Errorf("dram: "+format, args...)
	}
}

func (d *DRAM) finish(p *pending, c sim.Cycle) {
	d.stats.TotalLatency += uint64(c - p.arrived)
	resp := Response{ID: p.req.ID, Addr: p.req.Addr}
	if p.req.Write {
		d.stats.Writes++
		d.stats.WordsWritten += uint64(p.req.Words)
		if len(p.req.Data) != p.req.Words {
			panic(fmt.Sprintf("dram: write %#x has %d data words, want %d", p.req.Addr, len(p.req.Data), p.req.Words))
		}
		d.img.WriteWords(p.req.Addr, p.req.Data)
	} else {
		d.stats.Reads++
		d.stats.WordsRead += uint64(p.req.Words)
		resp.Data = d.img.ReadWords(p.req.Addr, p.req.Words)
		if d.Faults != nil {
			drop, delay := d.Faults.ReadResponse(resp, c)
			if drop {
				d.stats.DroppedResps++
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
func (d *DRAM) deliver(resp Response) {
	if !d.Resp.Push(resp) {
		d.respHold = append(d.respHold, resp)
	}
}
