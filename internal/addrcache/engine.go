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
// data of the previous step (nil on the first call, with the block base
// address) and returns either the next step or a final result.
type Walk interface {
	Next(blockBase uint64, data []uint64) (Step, *Result)
}

// Job submits a walk to the engine.
type Job struct {
	ID     uint64
	W      Walk
	Issued sim.Cycle
}

// JobResp completes a Job.
type JobResp struct {
	ID     uint64
	Result Result
}

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
	state   ctxState
	job     Job
	readyAt sim.Cycle // compute completion
	step    Step
}

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
	}
	k.Add(e)
	return e
}

// Stats returns a copy of engine statistics.
func (e *Engine) Stats() EngineStats { return e.stats }

// Idle reports whether all contexts are idle and no jobs are queued.
func (e *Engine) Idle() bool {
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
func (e *Engine) Tick(cy sim.Cycle) {
	// Route cache responses back to waiting contexts.
	for {
		resp, ok := e.cache.RespQ.Peek()
		if !ok {
			break
		}
		ctx := &e.ctxs[resp.ID]
		if ctx.state != ctxWaitMem {
			panic("addrcache: response for non-waiting context")
		}
		e.cache.RespQ.Pop()
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
func (e *Engine) advance(cy sim.Cycle, ctx *walkCtx, blockBase uint64, data []uint64) {
	step, res := ctx.job.W.Next(blockBase, data)
	if res != nil {
		e.resultBuffered(res.Words)
		lat := uint64(cy - ctx.job.Issued)
		e.stats.L2USum += lat
		e.stats.L2UCount++
		if lat > e.stats.L2UMax {
			e.stats.L2UMax = lat
		}
		e.Resp.MustPush(JobResp{ID: ctx.job.ID, Result: *res})
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

func (e *Engine) issue(cy sim.Cycle, ctx *walkCtx) {
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
