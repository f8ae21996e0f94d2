package addrcache

import (
	"xcache/internal/sim"
)

// Step is one address load of a data-structure walk, optionally preceded
// by datapath compute (e.g., Widx spends up to 60 cycles hashing a string
// key before it can index the bucket array).
type Step struct {
	Addr          uint64
	ComputeCycles int
}

// Result ends a walk.
type Result struct {
	Found bool
	Value uint64
	Words int // data words the walk produced (for bandwidth accounting)
}

// Walk is a stateful data-structure traversal. Next receives the block
// of the previous step (nil on the first call) with its base address,
// and returns either the next step or, with done set, the walk's result.
// data is a slice of an engine-owned buffer, valid only for the call:
// the engine overwrites it before the next one.
type Walk interface {
	Next(blockBase uint64, data []uint64) (step Step, res Result, done bool)
}

// Job submits a walk to the engine. The engine owns W from the push
// until the job's JobResp is popped; the issuer must not touch W in
// between.
type Job struct {
	ID     uint64
	W      Walk
	Issued sim.Cycle
}

// JobResp completes a Job and hands its finished walk back: from the pop
// on, W belongs to the popper again, which may reset it for a later job
// (WalkPool).
type JobResp struct {
	ID     uint64
	Result Result
	W      Walk
}

// WalkPool recycles walks of one concrete type: a pump that Puts each
// finished walk it pops from JobResp.W (asserted back to *T) and Gets
// the next job's walk allocates only while its count of walks in flight
// grows.
type WalkPool[T any] struct{ free []*T }

// Get returns a spare walk, or a new one when none is spare. A spare
// walk holds its previous job's state; the caller overwrites it.
func (p *WalkPool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		w := p.free[n-1]
		p.free = p.free[:n-1]
		return w
	}
	return new(T)
}

// Put takes back a finished walk.
func (p *WalkPool[T]) Put(w *T) { p.free = append(p.free, w) }

// EngineConfig sets walk-engine parallelism.
type EngineConfig struct {
	Contexts int // concurrent walks (matched to #Active for fairness)
}

// Queue capacities of the walk engine.
const (
	jobDepth     = 32
	jobRespDepth = 64
)

type ctxState uint8

const (
	ctxIdle ctxState = iota
	ctxCompute
	ctxWaitMem
)

type walkCtx struct {
	id      uint64 // index in Engine.ctxs: the ID of its cache accesses
	state   ctxState
	job     Job
	readyAt sim.Cycle // compute completion
	addr    uint64    // the address of the step to issue
}

// never is the due cycle of an engine with no computing context.
const never = ^sim.Cycle(0)

// EngineStats counts engine activity.
type EngineStats struct {
	Jobs             uint64
	Steps            uint64
	ComputeCycles    uint64
	L2USum, L2UCount uint64
	L2UMax           uint64
}

// AvgLoadToUse is the mean job latency — for an address-tagged design the
// walk is on the critical path of every access, so this is the Fig 4
// "load-to-use" quantity.
func (s EngineStats) AvgLoadToUse() float64 {
	if s.L2UCount == 0 {
		return 0
	}
	return float64(s.L2USum) / float64(s.L2UCount)
}

// Engine drives Walks through the cache with bounded parallelism. The
// paper's comparison point makes orchestration decisions free (zero
// decision cost) but still pays for every address load the walk performs.
type Engine struct {
	Cfg   EngineConfig
	Jobs  *sim.Queue[Job]
	Resp  *sim.Queue[JobResp]
	cache *Cache
	ctxs  []walkCtx
	idle  int       // contexts in ctxIdle
	due   sim.Cycle // earliest readyAt of a context in ctxCompute, or never
	blk   [MaxBlockWords]uint64
	stats EngineStats
}

// resultBuffered charges the on-chip staging of a walk's produced words:
// the datapath consumes results from a row/object buffer exactly as it
// consumes X-Cache's data RAM, so the comparison stays symmetric.
func (e *Engine) resultBuffered(words int) {
	if e.cache.Meter != nil && words > 0 {
		e.cache.Meter.DataBytes += uint64(words) * 8
	}
}

// NewEngine builds a walk engine over cache.
func NewEngine(k *sim.Kernel, cfg EngineConfig, cache *Cache) *Engine {
	if cfg.Contexts == 0 {
		cfg.Contexts = 8
	}
	e := &Engine{
		Cfg:   cfg,
		Jobs:  sim.NewQueue[Job](k, "walk.jobs", jobDepth),
		Resp:  sim.NewQueue[JobResp](k, "walk.resp", jobRespDepth),
		cache: cache,
		ctxs:  make([]walkCtx, cfg.Contexts),
		idle:  cfg.Contexts,
		due:   never,
	}
	for i := range e.ctxs {
		e.ctxs[i].id = uint64(i)
	}
	k.Add(e)
	return e
}

// Stats returns a copy of engine statistics.
func (e *Engine) Stats() EngineStats { return e.stats }

// Idle reports whether all contexts are idle and no jobs are queued.
func (e *Engine) Idle() bool {
	return e.Jobs.Len() == 0 && e.idle == len(e.ctxs)
}

// Tick implements sim.Component.
func (e *Engine) Tick(cy sim.Cycle) {
	// Route cache responses back to waiting contexts.
	for e.cache.RespQ.Len() > 0 {
		resp, _ := e.cache.RespQ.Pop()
		ctx := &e.ctxs[resp.ID]
		if ctx.state != ctxWaitMem {
			panic("addrcache: response for non-waiting context")
		}
		n := copy(e.blk[:], resp.Data[:resp.Words])
		e.advance(cy, ctx, resp.BlockBase, e.blk[:n])
	}

	// Visit the contexts in index order, but only when one of them has
	// work: an idle context can take a queued job, or a computing one is
	// due.
	if (e.idle == 0 || e.Jobs.Len() == 0) && e.due > cy {
		return
	}
	e.due = never
	for i := range e.ctxs {
		ctx := &e.ctxs[i]
		switch ctx.state {
		case ctxIdle:
			job, ok := e.Jobs.Pop()
			if !ok {
				continue
			}
			ctx.job = job
			e.idle--
			e.stats.Jobs++
			e.advance(cy, ctx, 0, nil)
		case ctxCompute:
			if ctx.readyAt <= cy {
				e.issue(cy, ctx)
			} else {
				e.due = min(e.due, ctx.readyAt)
			}
		}
	}
}

// advance feeds data to the walk and handles its next step or result.
func (e *Engine) advance(cy sim.Cycle, ctx *walkCtx, blockBase uint64, data []uint64) {
	step, res, done := ctx.job.W.Next(blockBase, data)
	if done {
		e.resultBuffered(res.Words)
		lat := uint64(cy - ctx.job.Issued)
		e.stats.L2USum += lat
		e.stats.L2UCount++
		if lat > e.stats.L2UMax {
			e.stats.L2UMax = lat
		}
		e.Resp.MustPush(JobResp{ID: ctx.job.ID, Result: res, W: ctx.job.W})
		ctx.job = Job{}
		ctx.state = ctxIdle
		e.idle++
		return
	}
	ctx.addr = step.Addr
	e.stats.Steps++
	if step.ComputeCycles > 0 {
		e.stats.ComputeCycles += uint64(step.ComputeCycles)
		e.computeUntil(ctx, cy+sim.Cycle(step.ComputeCycles))
		return
	}
	e.issue(cy, ctx)
}

// computeUntil parks ctx in ctxCompute until cycle at.
func (e *Engine) computeUntil(ctx *walkCtx, at sim.Cycle) {
	ctx.state = ctxCompute
	ctx.readyAt = at
	e.due = min(e.due, at)
}

func (e *Engine) issue(cy sim.Cycle, ctx *walkCtx) {
	if !e.cache.ReqQ.Push(Access{ID: ctx.id, Addr: ctx.addr, Issued: cy}) {
		// Port busy: stay in compute state and retry next cycle.
		e.computeUntil(ctx, cy+1)
		return
	}
	ctx.state = ctxWaitMem
}
