// Package ctrl implements X-Cache's programmable cache controller
// (Fig 8/9). The front-end is an event loop: it monitors the message
// queues (meta requests from the DSA datapath, DRAM fills, internal
// events), maps messages to events through the trigger table, and wakes at
// most one walker per cycle. The back-end is an in-order routine pipeline
// executing up to #Exe microcode actions per cycle across the in-flight
// routines. Hits bypass the walkers entirely through a dedicated
// fully-pipelined port with a 3-cycle load-to-use latency.
//
// Walkers are coroutines: a routine runs non-blocking to a terminal action
// and the walker sleeps until the next event re-wakes it, releasing the
// pipeline. The package also retains a blocking-thread execution mode used
// only for the paper's Fig 7 occupancy ablation.
//
// The back-end has two executor implementations, selected by
// Config.Exec. The default (ExecFast, exec_fast.go) pre-decodes every
// verified microcode word into a step closure at load time, discharging
// the checks the program verifier has already proven — operand decode,
// register bounds, immediate ranges — and keeping only the
// runtime-decidable traps dynamic. ExecInterp (exec.go) is the
// reference interpreter that re-decodes every word on every step; it
// remains the semantic ground truth the fast path is differentially
// tested against (exec_diff_test.go, FuzzExecDiff). See DESIGN.md §11
// for the pre-decode pipeline and the soundness argument, and this
// package's README.md for the file map.
package ctrl

import (
	"fmt"
	"math/bits"

	"xcache/internal/dataram"
	"xcache/internal/dram"
	"xcache/internal/energy"
	"xcache/internal/metatag"
	"xcache/internal/program"
	"xcache/internal/sim"
	"xcache/internal/stats"
)

// MetaOp is the operation of a meta access.
type MetaOp uint8

// Meta access operations issued by DSA datapaths.
const (
	// MetaLoad requests the element tagged by Key; a miss runs the walker.
	MetaLoad MetaOp = iota
	// MetaStore overwrites the element's first data word.
	MetaStore
	// MetaStoreMerge accumulates Payload into the element's first data
	// word (GraphPulse event coalescing), allocating on miss.
	MetaStoreMerge
	// MetaStoreMergeMin keeps the minimum of the stored word and Payload
	// (SSSP-style relaxation coalescing), allocating on miss.
	MetaStoreMergeMin
)

// MetaReq is a meta load/store from the datapath.
type MetaReq struct {
	ID      uint64
	Op      MetaOp
	Key     metatag.Key
	Payload uint64
	Issued  sim.Cycle // set by the datapath; used for load-to-use stats
}

// MetaResp answers a MetaReq.
type MetaResp struct {
	ID     uint64
	Status int    // program.StatusOK or program.StatusNotFound
	Value  uint64 // scalar result (first data word / walker enqresp value)
	Words  int    // data words delivered on a block hit
	Data   []uint64
}

// ExecMode selects how walkers share the controller pipeline.
type ExecMode uint8

// Execution modes (§3.3).
const (
	// ModeCoroutine multiplexes walkers on the pipeline, yielding at
	// long-latency events. This is X-Cache's design point.
	ModeCoroutine ExecMode = iota
	// ModeThread pins each walker to a hardware pipeline for its whole
	// lifetime, blocking across DRAM fills (the prior-work baseline of
	// Fig 7).
	ModeThread
)

// Config parameterizes the controller (the Fig 13 generator knobs).
type Config struct {
	NumActive int // #Active: concurrent walkers (X-register files)
	NumExe    int // #Exe: action slots per cycle / thread pipelines
	NumXRegs  int // registers per walker (default 16)

	MetaQueueDepth int
	RespQueueDepth int
	HitLatency     int // dedicated hit-port load-to-use (default 3)
	MaxFillWords   int // largest single DRAM fill a routine may request

	Mode      ExecMode
	Exec      ExecPath // back-end executor: pre-decoded fast path (default) or reference interpreter
	Hardwired bool     // hardwired-FSM baseline: whole routine in 1 cycle, no µcode fetches

	MaxRoutineSteps int // runaway-microcode guard (default 4096)
	RespDataWords   int // cap on words copied into MetaResp.Data
	MaxWaiters      int // merged requests per walker before backpressure

	// Hardening knobs (internal/check wires these; both default off so
	// benchmarks pay nothing).
	FillTimeout int  // cycles before an unanswered DRAM fill is reissued (0 = off)
	ParityCheck bool // scrub probed sets for parity-corrupted meta-tags
}

const (
	// evQueueDepth bounds the controller's internal event queue.
	evQueueDepth = 64
	// maxFillRetries is how many times a timed-out fill is reissued
	// before it is declared failed.
	maxFillRetries = 8
)

func (c *Config) defaults() {
	if c.NumActive == 0 {
		c.NumActive = 8
	}
	if c.NumExe == 0 {
		c.NumExe = 4
	}
	if c.NumXRegs == 0 {
		c.NumXRegs = 16
	}
	if c.MetaQueueDepth == 0 {
		c.MetaQueueDepth = 16
	}
	if c.RespQueueDepth == 0 {
		c.RespQueueDepth = 64
	}
	if c.HitLatency == 0 {
		c.HitLatency = 3
	}
	if c.MaxFillWords == 0 {
		c.MaxFillWords = 8
	}
	if c.MaxRoutineSteps == 0 {
		c.MaxRoutineSteps = 4096
	}
	if c.RespDataWords == 0 {
		c.RespDataWords = 16
	}
	if c.MaxWaiters == 0 {
		c.MaxWaiters = 8
	}
}

// Stats aggregates controller activity.
type Stats struct {
	Loads, Stores    uint64
	Hits, Misses     uint64 // stable-entry hits vs walker spawns; a merge counts in neither
	MergedWaiters    uint64
	NotFound         uint64
	Responses        uint64
	RoutineRuns      uint64
	Actions          uint64
	FillsIssued      uint64
	WritebacksIssued uint64
	AllocRetries     uint64 // allocM conflicts pushed back to replay
	MaxFillsInFlight int    // high-water mark of outstanding DRAM fills
	StallCycles      uint64 // backend cycles lost to full queues
	Traps            uint64 // structural microcode faults (walkers quiesced)

	// Fault-recovery accounting (zero unless hardening is enabled).
	FillRetries   uint64 // timed-out DRAM fills reissued
	SpuriousFills uint64 // duplicate/late responses discarded after a retry
	ParityScrubs  uint64 // parity-corrupted meta-tags invalidated for refetch

	// Load-to-use accounting (request issue → response push).
	L2USum, L2UCount, L2UMax uint64
	HitL2USum, HitL2UCount   uint64
	L2UHist                  stats.Histogram

	// Occupancy (Fig 7): Σ live-register-bytes × cycles.
	OccupancyByteCycles uint64
}

// AvgLoadToUse returns mean cycles from issue to response.
func (s Stats) AvgLoadToUse() float64 {
	if s.L2UCount == 0 {
		return 0
	}
	return float64(s.L2USum) / float64(s.L2UCount)
}

// AvgHitLoadToUse returns the mean load-to-use over stable hits only.
func (s Stats) AvgHitLoadToUse() float64 {
	if s.HitL2UCount == 0 {
		return 0
	}
	return float64(s.HitL2USum) / float64(s.HitL2UCount)
}

// HitRate returns hits / (hits + misses).
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// wbIDFlag marks a DRAM write (walker writeback or dirty-eviction
// spill), whose ack acceptFills discards (request-ID layout: DESIGN.md
// §9).
const wbIDFlag = uint64(1) << 63

// message is a pending wakeup for a walker.
type message struct {
	event int
	addr  uint64
	data  []uint64
}

type walker struct {
	active   bool
	id       int32
	key      metatag.Key
	state    int
	entry    *metatag.Entry
	regs     []uint64
	liveMask uint32 // registers holding values right now
	persist  uint32 // allocr-marked registers that survive yields
	origin   MetaReq
	waiters  []MetaReq
	msg      message
	pending  []message
	running  bool
	fills    int // outstanding DRAM fills for this walker
	spawned  sim.Cycle
	isStore  bool
	pipeline int32 // thread mode: pipeline index, else -1

	// trapped marks a quiesced walker still draining outstanding fills;
	// responded records that the origin request was already answered, so
	// a later trap must not answer it twice.
	trapped   bool
	responded bool
}

type run struct {
	walker int32
	start  int32
	pc     int32
	steps  int
}

type hitJob struct {
	readyAt sim.Cycle
	resp    MetaResp
}

// Controller is the programmable X-Cache controller.
type Controller struct {
	Cfg  Config
	Prog *program.Program

	Tags *metatag.Array
	Data *dataram.RAM

	// Datapath-facing queues.
	ReqQ  *sim.Queue[MetaReq]
	RespQ *sim.Queue[MetaResp]

	// Memory-side queues (owned by the DRAM model or a lower cache level).
	MemReq  *sim.Queue[dram.Request]
	MemResp *sim.Queue[dram.Response]

	evq    *sim.Queue[message] // internal events; message.addr carries walker id
	replay []MetaReq

	env      [16]uint64
	walkers  []walker
	freeW    []int32
	inflight []run
	hitPipe  []hitJob
	hitAvail int     // banked hit-port word budget (refreshed per cycle)
	pipes    []int32 // thread mode: pipeline -> walker or -1

	Meter *energy.Counters
	stats Stats

	// fast is the pre-decoded step-closure table, indexed by absolute pc
	// (exec_fast.go); nil when Cfg.Exec selects the reference interpreter.
	fast []fastFn

	outstandingFills int

	// Running totals over the walker contexts, kept current wherever a
	// walker's live mask, pending list or liveness changes, so no
	// per-cycle pass scans the contexts: liveRegs is Σ popcount(liveMask)
	// over active walkers (the coroutine-mode Fig 7 rate), pendingMsgs is
	// Σ len(pending).
	liveRegs    uint64
	pendingMsgs int

	// Hardening state.
	fillTable   []fillRec // outstanding fills, tracked when FillTimeout > 0
	fillFailure error     // a fill exhausted maxFillRetries
	cycWakes    int       // walker wake-ups this cycle (invariant: ≤ #Exe)
	cycActions  int       // actions executed this cycle (invariant: ≤ #Exe)

	// Trap state: the first structural microcode fault, and NotFound
	// responses for quiesced walkers awaiting response-queue space.
	trap      *Trap
	trapResps []MetaResp

	// sink, when non-nil, receives the meta-tag reference trace (see
	// trace.go); the executor differential compares the two executors'
	// streams.
	sink TraceSink

	// evictHook, when non-nil, observes every stable entry leaving the
	// meta-tag array (see SetEvictHook). internal/hier's coherence
	// directory uses it for inclusion-enforced back-invalidation.
	evictHook func(EvictNote) bool
}

// EvictNote describes a meta-tag entry leaving the controller's array —
// capacity eviction, drain, flush, or parity scrub. Words holds the
// entry's data words read before the sectors are freed (nil when the
// entry held no sectors, or when a parity scrub made them untrustworthy).
type EvictNote struct {
	Key   metatag.Key
	Dirty bool
	Words []uint64
}

// SetEvictHook registers fn to observe every stable entry leaving the
// array. When fn returns true for a dirty victim it has taken ownership
// of the writeback and the controller skips its own spill to the victim
// region; the return value is ignored on all other paths. Entries removed
// by the walker itself (abort, deallocm) are its own transient
// allocations — no upstream level ever observed them as present — and do
// not fire the hook.
func (c *Controller) SetEvictHook(fn func(EvictNote) bool) { c.evictHook = fn }

// fillRec tracks one outstanding DRAM fill for the timeout/retry path.
type fillRec struct {
	walker  int32
	addr    uint64
	words   int
	issued  sim.Cycle
	retries int
}

// verifyConfig derives the static-verifier limits from an
// already-defaulted controller configuration and its data RAM.
func (cfg Config) verifyConfig(data *dataram.RAM) program.VerifyConfig {
	vc := program.VerifyConfig{
		NumXRegs:        cfg.NumXRegs,
		MaxFillWords:    cfg.MaxFillWords,
		MaxRoutineSteps: cfg.MaxRoutineSteps,
		EnvSlots:        16,
	}
	if data != nil {
		vc.DataSectors = data.Cfg.Sectors
	}
	return vc
}

// New wires a controller. memReq/memResp connect it to DRAM (or a lower
// level); tags and data are the RAM arrays it manages. The program is
// statically verified against the configuration once, here at load time;
// a rejected program never executes a cycle.
func New(k *sim.Kernel, cfg Config, prog *program.Program, tags *metatag.Array,
	data *dataram.RAM, memReq *sim.Queue[dram.Request], memResp *sim.Queue[dram.Response],
	meter *energy.Counters) (*Controller, error) {

	cfg.defaults()
	facts, err := program.VerifyFacts(prog, cfg.verifyConfig(data))
	if err != nil {
		return nil, fmt.Errorf("ctrl: program rejected at load: %w", err)
	}
	c := &Controller{
		Cfg:     cfg,
		Prog:    prog,
		Tags:    tags,
		Data:    data,
		MemReq:  memReq,
		MemResp: memResp,
		Meter:   meter,
		ReqQ:    sim.NewQueue[MetaReq](k, "xc.req", cfg.MetaQueueDepth),
		RespQ:   sim.NewQueue[MetaResp](k, "xc.resp", cfg.RespQueueDepth),
		evq:     sim.NewQueue[message](k, "xc.evq", evQueueDepth),
	}
	c.walkers = make([]walker, cfg.NumActive)
	for i := range c.walkers {
		c.walkers[i] = walker{id: int32(i), regs: make([]uint64, cfg.NumXRegs), pipeline: -1}
		c.freeW = append(c.freeW, int32(i))
	}
	c.pipes = make([]int32, cfg.NumExe)
	for i := range c.pipes {
		c.pipes[i] = -1
	}
	if cfg.Exec == ExecFast {
		c.predecode(facts)
	}
	k.Add(c)
	return c, nil
}

// LoadProgram swaps in a new walker program, verifying it against the
// controller's configuration first. The previous program (and any pending
// trap) is kept on rejection.
func (c *Controller) LoadProgram(p *program.Program) error {
	facts, err := program.VerifyFacts(p, c.Cfg.verifyConfig(c.Data))
	if err != nil {
		return fmt.Errorf("ctrl: program rejected at load: %w", err)
	}
	c.Prog = p
	c.trap = nil
	if c.Cfg.Exec == ExecFast {
		c.predecode(facts)
	}
	return nil
}

// SetEnv installs a DSA-specific environment operand (lde source).
func (c *Controller) SetEnv(i int, v uint64) { c.env[i] = v }

// Stats returns a copy of the controller statistics.
func (c *Controller) Stats() Stats { return c.stats }

// TrapCount returns Stats().Traps without copying the statistics, for
// supervisors that poll it every cycle.
func (c *Controller) TrapCount() uint64 { return c.stats.Traps }

// Idle reports whether no walkers, routines, queued work, hit returns or
// deferred trap responses remain.
func (c *Controller) Idle() bool {
	return len(c.inflight) == 0 && len(c.replay) == 0 && len(c.hitPipe) == 0 &&
		c.ReqQ.Len() == 0 && c.evq.Len() == 0 && c.outstandingFills == 0 &&
		len(c.freeW) == len(c.walkers) && len(c.trapResps) == 0
}

// Tick implements sim.Component.
func (c *Controller) Tick(cy sim.Cycle) {
	c.cycWakes, c.cycActions = 0, 0
	if len(c.trapResps) > 0 {
		c.flushTrapResps()
	}
	c.drainHitPipe(cy)
	c.acceptFills(cy)
	if c.Cfg.FillTimeout > 0 {
		c.retryFills(cy)
	}
	c.frontend(cy)
	c.backend(cy)
	c.accumulateOccupancy()
}

// retryFills reissues DRAM fills that have gone unanswered for longer
// than FillTimeout cycles (dropped responses under fault injection). The
// logical fill stays the same — outstanding counts are not re-incremented
// — so a late original and the retry's response cannot both wake the
// walker; the second is discarded as spurious in acceptFills.
func (c *Controller) retryFills(cy sim.Cycle) {
	for i := range c.fillTable {
		r := &c.fillTable[i]
		if cy < r.issued+sim.Cycle(c.Cfg.FillTimeout) {
			continue
		}
		if r.retries >= maxFillRetries {
			if c.fillFailure == nil {
				c.fillFailure = fmt.Errorf("ctrl: fill %#x (%d words) for walker %d failed after %d retries",
					r.addr, r.words, r.walker, r.retries)
			}
			continue
		}
		if !c.MemReq.CanPush() {
			return // full memory queue: retry next cycle
		}
		c.MemReq.MustPush(dram.Request{ID: uint64(r.walker), Addr: r.addr, Words: r.words})
		r.issued = cy
		r.retries++
		c.stats.FillRetries++
	}
}

// matchFill consumes the fill record for (walker, addr); ok is false when
// no record exists (a duplicate response after a retry already landed).
func (c *Controller) matchFill(wid int32, addr uint64) bool {
	for i := range c.fillTable {
		r := &c.fillTable[i]
		if r.walker == wid && r.addr == addr {
			c.fillTable[i] = c.fillTable[len(c.fillTable)-1]
			c.fillTable = c.fillTable[:len(c.fillTable)-1]
			return true
		}
	}
	return false
}

func (c *Controller) drainHitPipe(cy sim.Cycle) {
	keep := c.hitPipe[:0]
	for _, h := range c.hitPipe {
		if h.readyAt <= cy && c.RespQ.CanPush() {
			c.RespQ.MustPush(h.resp)
			c.stats.Responses++
			continue
		}
		keep = append(keep, h)
	}
	c.hitPipe = keep
}

// acceptFills pops DRAM responses and routes them to walkers' pending
// message lists (writeback acks are discarded).
func (c *Controller) acceptFills(cy sim.Cycle) {
	for {
		resp, ok := c.MemResp.Peek()
		if !ok {
			break
		}
		if resp.ID&wbIDFlag != 0 {
			c.MemResp.Pop()
			continue
		}
		wid := int32(resp.ID & 0xffffffff)
		if c.Cfg.FillTimeout > 0 && !c.matchFill(wid, resp.Addr) {
			// A retry's response already woke the walker; this is the late
			// original (or vice versa). Discard it.
			c.MemResp.Pop()
			c.stats.SpuriousFills++
			continue
		}
		w := &c.walkers[wid]
		if !w.active {
			// A fill addressed to a freed walker means this package lost
			// track of an MSHR — a simulator contract violation, not a
			// program fault, so it stays a (typed) panic.
			specBug("fill for inactive walker %d", wid)
		}
		c.MemResp.Pop()
		c.outstandingFills--
		w.fills--
		if w.trapped {
			// Quiesced walker draining: discard the data, free the context
			// once the last outstanding fill lands.
			if w.fills == 0 {
				c.freeTrapped(w)
			}
			continue
		}
		if c.Meter != nil {
			c.Meter.QueueBytes += uint64(len(resp.Data)) * 8
		}
		w.pending = append(w.pending, message{event: program.EvFill, addr: resp.Addr, data: resp.Data})
		c.pendingMsgs++
	}
}

// frontend processes up to #Exe front-end slots per cycle: walker
// wake-ups (DRAM fills, internal events) and meta-request admissions
// (hit serves, waiter merges, walker spawns). The trigger/decode stage is
// replicated per executor lane, so #Exe is a genuine throughput knob —
// the behaviour Fig 18 sweeps.
func (c *Controller) frontend(cy sim.Cycle) {
	budget := c.Cfg.NumExe

	// Refresh the banked hit-port word budget (debt from multi-sector
	// returns carries over and blocks later cycles).
	c.hitAvail += c.Data.Cfg.Banks
	if c.hitAvail > c.Data.Cfg.Banks {
		c.hitAvail = c.Data.Cfg.Banks
	}

	// 1. Deliver pending messages (DRAM fills, stashed events) to idle
	// walkers.
	for i := 0; i < len(c.walkers) && c.pendingMsgs > 0; i++ {
		if budget == 0 {
			return
		}
		w := &c.walkers[i]
		if !w.active || w.trapped || w.running || len(w.pending) == 0 {
			continue
		}
		w.msg = w.pending[0]
		w.pending = w.pending[1:]
		c.pendingMsgs--
		c.fire(cy, w, w.msg.event)
		budget--
	}

	// 2. Internal event queue.
	for budget > 0 {
		m, ok := c.evq.Peek()
		if !ok {
			break
		}
		w := &c.walkers[int32(m.addr)]
		c.evq.Pop()
		if !w.active || w.trapped {
			continue
		}
		if w.running {
			w.pending = append(w.pending, m)
			c.pendingMsgs++
			continue
		}
		w.msg = m
		c.fire(cy, w, m.event)
		budget--
	}

	// 3. Meta requests: replay queue first (completed walkers' waiters),
	// then the datapath queue.
	for budget > 0 {
		var req MetaReq
		var fromReplay bool
		if len(c.replay) > 0 {
			req, fromReplay = c.replay[0], true
		} else if r, ok := c.ReqQ.Peek(); ok {
			req = r
		} else {
			return
		}

		if c.Cfg.ParityCheck {
			c.Tags.ScrubSet(req.Key, c.scrubEntry)
		}
		entry := c.Tags.Probe(req.Key)
		if entry != nil && entry.State == program.StateValid {
			if !c.serveHit(cy, req, entry) {
				return // hit port saturated this cycle
			}
			c.Tags.Account(true)
			c.consumeReq(fromReplay)
			c.trace(TraceEvent{Kind: TraceReq, Class: ClassHit, Op: req.Op, ID: req.ID, Key: req.Key, Replay: fromReplay})
			budget--
			continue
		}
		if entry != nil {
			if !c.merge(&c.walkers[entry.Walker], req, fromReplay) {
				return // waiter list full: backpressure
			}
			c.Tags.Account(true)
			c.trace(TraceEvent{Kind: TraceReq, Class: ClassMerge, Op: req.Op, ID: req.ID, Key: req.Key, Replay: fromReplay})
			budget--
			continue
		}
		// Active meta-tag bitmap (§4.1 y1): a walker may be live for this
		// key before its allocm has executed; merge, don't duplicate.
		merged := false
		for i := range c.walkers {
			w := &c.walkers[i]
			if w.active && !w.trapped && c.keyEq(w.key, req.Key) {
				if !c.merge(w, req, fromReplay) {
					return
				}
				merged = true
				break
			}
		}
		if merged {
			c.trace(TraceEvent{Kind: TraceReq, Class: ClassMerge, Op: req.Op, ID: req.ID, Key: req.Key, Replay: fromReplay})
			budget--
			continue
		}

		// Miss: spawn a walker.
		if len(c.freeW) == 0 {
			return
		}
		if c.Cfg.Mode == ModeThread && c.freePipe() < 0 {
			return
		}
		c.Tags.Account(false)
		c.consumeReq(fromReplay)
		c.trace(TraceEvent{Kind: TraceReq, Class: ClassMiss, Op: req.Op, ID: req.ID, Key: req.Key, Replay: fromReplay})
		c.spawn(cy, req)
		budget--
	}
}

func (c *Controller) keyEq(a, b metatag.Key) bool {
	if a[0] != b[0] {
		return false
	}
	return c.Tags.Cfg.KeyWords < 2 || a[1] == b[1]
}

// merge parks a request behind the walker already handling its key.
func (c *Controller) merge(w *walker, req MetaReq, fromReplay bool) bool {
	if len(w.waiters) >= c.Cfg.MaxWaiters {
		return false // backpressure
	}
	w.waiters = append(w.waiters, req)
	c.stats.MergedWaiters++
	c.consumeReq(fromReplay)
	return true
}

func (c *Controller) consumeReq(fromReplay bool) {
	if fromReplay {
		c.replay = c.replay[1:]
	} else {
		c.ReqQ.Pop()
	}
}

func (c *Controller) freePipe() int32 {
	for i, w := range c.pipes {
		if w < 0 {
			return int32(i)
		}
	}
	return -1
}

// serveHit runs the dedicated hit port: meta-tag hit, data sectors
// pipelined out through the crossbar. Returns false when the data port is
// still busy with a prior multi-sector return.
func (c *Controller) serveHit(cy sim.Cycle, req MetaReq, entry *metatag.Entry) bool {
	if c.hitAvail < 1 {
		return false
	}
	c.Tags.Touch(entry)
	c.stats.Hits++
	words := int(entry.SectorCount) * c.Data.Cfg.WordsPerSector
	resp := MetaResp{ID: req.ID, Status: program.StatusOK, Words: words}
	base := c.Data.SectorWordBase(entry.SectorBase)
	switch req.Op {
	case MetaLoad:
		c.stats.Loads++
		if words > 0 {
			// Every delivered word streams out of the banked data RAM;
			// Read charges energy per word. Words beyond the functional
			// snapshot cap are charged without being copied.
			keep := words
			if keep > c.Cfg.RespDataWords {
				keep = c.Cfg.RespDataWords
			}
			resp.Data = make([]uint64, keep)
			for i := 0; i < keep; i++ {
				resp.Data[i] = c.Data.Read(base + int32(i))
			}
			resp.Value = resp.Data[0]
			if c.Meter != nil && words > keep {
				c.Meter.DataBytes += uint64(words-keep) * 8
			}
		}
	case MetaStore:
		c.stats.Stores++
		c.Data.Write(base, req.Payload)
		entry.Dirty = true
		resp.Value = req.Payload
	case MetaStoreMerge:
		c.stats.Stores++
		old := c.Data.Read(base)
		c.Data.Write(base, old+req.Payload)
		entry.Dirty = true
		resp.Value = old + req.Payload
		if c.Meter != nil {
			c.Meter.AddOps++
		}
	case MetaStoreMergeMin:
		c.stats.Stores++
		old := c.Data.Read(base)
		v := old
		if req.Payload < v {
			v = req.Payload
			c.Data.Write(base, v)
			entry.Dirty = true
		}
		resp.Value = v
		if c.Meter != nil {
			c.Meter.BitOps++ // comparator
		}
	}
	banks := c.Data.Cfg.Banks
	occ := (words + banks - 1) / banks
	if occ < 1 {
		occ = 1
	}
	cost := words
	if req.Op != MetaLoad {
		cost = 1 // stores/merges touch one word
	}
	if cost < 1 {
		cost = 1
	}
	c.hitAvail -= cost
	ready := cy + sim.Cycle(c.Cfg.HitLatency+occ-1)
	c.hitPipe = append(c.hitPipe, hitJob{readyAt: ready, resp: resp})
	c.noteLatency(req, ready, true)
	return true
}

func (c *Controller) noteLatency(req MetaReq, done sim.Cycle, hit bool) {
	l := uint64(done - req.Issued)
	c.stats.L2UHist.Add(l)
	c.stats.L2USum += l
	c.stats.L2UCount++
	if l > c.stats.L2UMax {
		c.stats.L2UMax = l
	}
	if hit {
		c.stats.HitL2USum += l
		c.stats.HitL2UCount++
	}
}

// spawn allocates a walker context for a missing key and fires the
// (Default, MetaLoad/MetaStore) routine.
func (c *Controller) spawn(cy sim.Cycle, req MetaReq) {
	wid := c.freeW[len(c.freeW)-1]
	c.freeW = c.freeW[:len(c.freeW)-1]
	w := &c.walkers[wid]
	*w = walker{
		id: wid, active: true, key: req.Key, state: program.StateInvalid,
		regs: w.regs, origin: req, spawned: cy, pipeline: -1,
		isStore: req.Op != MetaLoad,
	}
	for i := range w.regs {
		w.regs[i] = 0
	}
	// Spawn conventions: r0 = payload, r1/r2 = key words.
	w.regs[0], w.regs[1], w.regs[2] = req.Payload, req.Key[0], req.Key[1]
	c.markLive(w, 0b111)
	if c.Meter != nil {
		c.Meter.RegBitsWritten += 3 * 64
	}
	if c.Cfg.Mode == ModeThread {
		p := c.freePipe()
		w.pipeline = p
		c.pipes[p] = wid
	}
	c.stats.Misses++
	if req.Op == MetaLoad {
		c.stats.Loads++
	} else {
		c.stats.Stores++
	}
	ev := program.EvMetaLoad
	if req.Op != MetaLoad {
		ev = program.EvMetaStore
	}
	w.msg = message{event: ev}
	c.fire(cy, w, ev)
}

// scrubEntry releases the data sectors of a parity-corrupted meta-tag
// before the array invalidates it; the next probe of its key misses and
// the walker refetches clean data from DRAM.
func (c *Controller) scrubEntry(e *metatag.Entry) {
	if c.evictHook != nil {
		// Scrubbed data is untrustworthy; report the invalidation without
		// a value so an upstream level back-invalidates rather than adopts.
		c.evictHook(EvictNote{Key: e.Key})
	}
	if e.SectorCount > 0 {
		c.Data.Free(e.SectorBase, e.SectorCount)
	}
	c.stats.ParityScrubs++
}

// fire starts the routine for (walker.state, event). A (state, event)
// pair with no routine traps and quiesces the walker: the static verifier
// cannot rule out event deliveries the program never declared (a walker
// can yield into a state that handles some events but not this one), so
// this stays a runtime check.
func (c *Controller) fire(cy sim.Cycle, w *walker, event int) {
	pc, ok := c.Prog.Lookup(w.state, event)
	if !ok {
		c.raise(cy, w, TrapMissingTransition, -1, 0,
			fmt.Sprintf("no transition for event %s", eventName(c.Prog, event)))
		return
	}
	w.running = true
	c.cycWakes++
	c.stats.RoutineRuns++
	c.inflight = append(c.inflight, run{walker: w.id, start: pc, pc: pc})
}

// eventName renders an event id, tolerating out-of-table ids.
func eventName(p *program.Program, ev int) string {
	if ev >= 0 && ev < len(p.EventNames) {
		return p.EventNames[ev]
	}
	return fmt.Sprintf("event%d", ev)
}

// backend executes up to #Exe actions across in-flight routines.
func (c *Controller) backend(cy sim.Cycle) {
	if len(c.inflight) == 0 {
		return
	}
	slots := c.Cfg.NumExe
	keep := c.inflight[:0]
	stalled := false
	for idx := 0; idx < len(c.inflight); idx++ {
		r := &c.inflight[idx]
		status := stepAgain
		for status == stepAgain {
			if !c.Cfg.Hardwired {
				if slots == 0 {
					break
				}
				slots--
			}
			if c.fast != nil {
				status = c.stepFast(cy, r)
			} else {
				status = c.step(cy, r)
			}
		}
		if status == stepStall && !stalled {
			c.stats.StallCycles++
			stalled = true
		}
		if status != stepDone {
			keep = append(keep, *r)
		}
		if slots == 0 && !c.Cfg.Hardwired {
			keep = append(keep, c.inflight[idx+1:]...)
			break
		}
	}
	c.inflight = keep
}

// accumulateOccupancy integrates the Fig 7 metric: #active-reg ×
// size-bytes × lifetime-cycles. Threads allocate at coarse granularity —
// every thread context (full register file plus pipeline latches) is
// provisioned for as long as the controller has work, exactly the
// prior-work designs §3.3 critiques. Coroutines hold only the X-registers
// a walker has actually made live, only while that walker exists.
func (c *Controller) accumulateOccupancy() {
	if c.Cfg.Mode == ModeThread {
		busy := len(c.freeW) < len(c.walkers) || len(c.inflight) > 0 ||
			c.ReqQ.Len() > 0 || len(c.replay) > 0
		if busy {
			ctx := uint64(c.Cfg.NumXRegs)*8 + 192
			c.stats.OccupancyByteCycles += uint64(len(c.walkers)) * ctx
		}
		return
	}
	c.stats.OccupancyByteCycles += c.liveRegs * 8
}

// finish releases a walker: waiters replay (they will now hit or respawn),
// thread pipelines free, context returns to the pool.
func (c *Controller) finish(w *walker, notFound bool) {
	if w.fills != 0 || len(w.pending) != 0 {
		// A program cannot reach this: fills are only issued by the routine
		// that waits for them, and the front-end delivers every pending
		// message before re-firing. Reaching it means this package broke
		// the coroutine discipline — a simulator bug, kept as a typed panic.
		specBug("walker %d finished with %d outstanding fills and %d pending messages",
			w.id, w.fills, len(w.pending))
	}
	for _, waiter := range w.waiters {
		if notFound {
			if c.RespQ.Push(MetaResp{ID: waiter.ID, Status: program.StatusNotFound}) {
				c.stats.Responses++
				c.stats.NotFound++
				continue
			}
		}
		c.replay = append(c.replay, waiter)
	}
	w.waiters = nil
	w.pending = nil
	w.active = false
	c.liveRegs -= uint64(bits.OnesCount32(w.liveMask))
	w.running = false
	if w.pipeline >= 0 {
		c.pipes[w.pipeline] = -1
		w.pipeline = -1
	}
	c.freeW = append(c.freeW, w.id)
}

// setState moves the walker (and its entry, if allocated) to state s.
func (c *Controller) setState(w *walker, s int) {
	w.state = s
	if w.entry != nil {
		w.entry.State = s
		c.Tags.Update()
	}
}

// Drained is one entry removed by DrainStable.
type Drained struct {
	Key   metatag.Key
	Value uint64 // first data word of the entry
}

// DrainStable removes every stable (Valid, walker-free) entry, invoking fn
// with its key and first data word, freeing its sectors, and charging the
// data-RAM read and tag write. GraphPulse uses this to pop its coalesced
// events between supersteps.
func (c *Controller) DrainStable(fn func(Drained)) int {
	c.trace(TraceEvent{Kind: TraceDrain})
	n := 0
	c.Tags.ForEach(func(e *metatag.Entry) {
		if e.Walker != metatag.NoWalker || e.State != program.StateValid {
			return
		}
		if c.Cfg.ParityCheck && !e.ParityOK() {
			// A corrupted key would drain under the wrong identity; drop
			// the entry instead (graceful degradation, counted).
			c.scrubEntry(e)
			c.Tags.Dealloc(e)
			return
		}
		var v uint64
		if e.SectorCount > 0 {
			v = c.Data.Read(c.Data.SectorWordBase(e.SectorBase))
			if c.evictHook != nil {
				words := int(e.SectorCount) * c.Data.Cfg.WordsPerSector
				base := c.Data.SectorWordBase(e.SectorBase)
				data := make([]uint64, words)
				for i := range data {
					data[i] = c.Data.Read(base + int32(i))
				}
				c.evictHook(EvictNote{Key: e.Key, Dirty: e.Dirty, Words: data})
			}
			c.Data.Free(e.SectorBase, e.SectorCount)
		} else if c.evictHook != nil {
			c.evictHook(EvictNote{Key: e.Key, Dirty: e.Dirty})
		}
		if fn != nil {
			fn(Drained{Key: e.Key, Value: v})
		}
		c.Tags.Dealloc(e)
		n++
	})
	return n
}

// --- Hardening hooks (internal/check) ---

// ActivityCount returns a monotonic progress counter the deadlock
// watchdog folds into its forward-progress signature.
func (c *Controller) ActivityCount() uint64 {
	return c.stats.Actions + c.stats.Responses + c.stats.Hits + c.stats.RoutineRuns
}

// CheckInvariants verifies the controller's per-cycle microarchitectural
// bounds after a kernel step: the front-end woke at most #Exe walkers,
// the back-end retired at most #Exe actions (unless hardwired), the
// outstanding-fill count matches the per-walker ledgers, and the walker
// free list is conserved. It also surfaces a fill that exhausted its
// retries.
func (c *Controller) CheckInvariants(cy sim.Cycle) error {
	if c.fillFailure != nil {
		return c.fillFailure
	}
	if c.cycWakes > c.Cfg.NumExe {
		return fmt.Errorf("ctrl: %d walker wakes in cycle %d exceeds #Exe=%d", c.cycWakes, cy, c.Cfg.NumExe)
	}
	if !c.Cfg.Hardwired && c.cycActions > c.Cfg.NumExe {
		return fmt.Errorf("ctrl: %d actions in cycle %d exceeds #Exe=%d", c.cycActions, cy, c.Cfg.NumExe)
	}
	sum, active := 0, 0
	for i := range c.walkers {
		w := &c.walkers[i]
		if w.fills < 0 {
			return fmt.Errorf("ctrl: walker %d has negative fill count %d", w.id, w.fills)
		}
		sum += w.fills
		if w.active {
			active++
		}
	}
	if sum != c.outstandingFills {
		return fmt.Errorf("ctrl: outstanding fills %d != per-walker sum %d (MSHR ledger skew)",
			c.outstandingFills, sum)
	}
	if active+len(c.freeW) != len(c.walkers) {
		return fmt.Errorf("ctrl: %d active + %d free walkers != %d contexts", active, len(c.freeW), len(c.walkers))
	}
	if c.Cfg.FillTimeout > 0 && len(c.fillTable) != c.outstandingFills {
		return fmt.Errorf("ctrl: fill table holds %d records for %d outstanding fills", len(c.fillTable), c.outstandingFills)
	}
	return nil
}

// DiagnoseName labels this component in stall reports.
func (c *Controller) DiagnoseName() string { return "ctrl" }

// Diagnose describes every in-flight walker routine and the controller's
// queue-side state for stall reports.
func (c *Controller) Diagnose() []string {
	out := []string{fmt.Sprintf("%d/%d walkers active, %d routines in flight, %d replaying, %d fills outstanding, hit pipe %d",
		len(c.walkers)-len(c.freeW), len(c.walkers), len(c.inflight), len(c.replay), c.outstandingFills, len(c.hitPipe))}
	if c.trap != nil {
		out = append(out, fmt.Sprintf("TRAP (%d total): %v", c.stats.Traps, c.trap))
	}
	for i := range c.walkers {
		w := &c.walkers[i]
		if !w.active {
			continue
		}
		state := "?"
		if w.state >= 0 && w.state < len(c.Prog.StateNames) {
			state = c.Prog.StateNames[w.state]
		}
		run := "sleeping"
		if w.running {
			run = "running"
		}
		out = append(out, fmt.Sprintf("walker %d: key=%#x state=%s %s, %d fills outstanding, %d waiters, %d pending msgs, spawned @%d",
			w.id, w.key[0], state, run, w.fills, len(w.waiters), len(w.pending), w.spawned))
	}
	for _, r := range c.fillTable {
		out = append(out, fmt.Sprintf("fill: walker %d addr=%#x words=%d issued @%d retries=%d",
			r.walker, r.addr, r.words, r.issued, r.retries))
	}
	return out
}

// FaultQueues lists the queues whose producers all tolerate transient
// fullness, i.e. the safe targets for clog fault injection.
func (c *Controller) FaultQueues() []sim.Clogger {
	return []sim.Clogger{c.ReqQ, c.RespQ, c.evq, c.MemReq}
}
