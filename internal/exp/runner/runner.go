package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"xcache/internal/dsa"
)

// Runner executes Specs across a pool of workers and memoises every
// completed run in a content-addressed cache, so the same point
// requested by several figures (the baseline config appears in Fig 4,
// Fig 14 and Fig 15) simulates exactly once per process.
//
// Determinism contract: Run returns results in spec order, each result
// a pure function of its Spec. Worker count, completion order and
// checkpoint resume affect only wall time and Stats — never the
// returned values. Errors are reported for the lowest-indexed failing
// spec, again independent of scheduling.
//
// Resilience: each spec executes once, and its failure resolves to a
// structured *RunError. A failure is a pure function of its spec, so it
// is memoised like a result: a failing point shared by several figures
// also executes once. Worker panics are isolated to their spec, and
// completed results can be journaled to a crash-safe on-disk checkpoint
// for resume.
type Runner struct {
	cfg  Config
	ckpt *Checkpoint

	// exec is the execution function (Spec.Execute in production); a seam
	// so resilience tests can script failures without a real simulation.
	exec func(Spec) (dsa.Result, error)

	mu      sync.Mutex
	cache   map[string]*entry
	stats   Stats
	running int // workers currently executing a simulation
}

// Config configures a Runner beyond its worker count.
type Config struct {
	// Workers is the pool size; <= 0 uses GOMAXPROCS.
	Workers int
	// CheckpointDir, when non-empty, journals every completed result to a
	// content-addressed on-disk store and consults it before executing,
	// so an interrupted sweep resumes instead of recomputing.
	CheckpointDir string
}

// entry is one content-addressed cache slot. done closes when the
// simulation finishes; until then other requesters for the same hash
// block on it instead of launching a duplicate run.
type entry struct {
	done chan struct{}
	res  dsa.Result
	err  *RunError
}

// New returns a Runner with the given worker count; workers <= 0 uses
// GOMAXPROCS. New(1) gives serial execution with the same caching and
// merge semantics.
func New(workers int) *Runner {
	r, err := NewFrom(Config{Workers: workers})
	if err != nil {
		// Unreachable: only the checkpoint store can fail to open.
		panic(err)
	}
	return r
}

// NewFrom returns a Runner for the full configuration. It fails only
// when the checkpoint directory cannot be created.
func NewFrom(cfg Config) (*Runner, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	r := &Runner{cfg: cfg, cache: map[string]*entry{}, exec: Spec.Execute}
	if cfg.CheckpointDir != "" {
		ckpt, err := OpenCheckpoint(cfg.CheckpointDir)
		if err != nil {
			return nil, err
		}
		r.ckpt = ckpt
	}
	return r, nil
}

// Workers returns the configured pool size.
func (r *Runner) Workers() int { return r.cfg.Workers }

// One executes a single spec (through the cache).
func (r *Runner) One(s Spec) (dsa.Result, error) {
	res, rerr := r.resolve(s)
	if rerr != nil {
		return dsa.Result{}, rerr
	}
	return res, nil
}

// Outcome is one spec's terminal state in a partial run: either a result
// or a classified failure, never both.
type Outcome struct {
	Res dsa.Result
	Err *RunError // nil on success
}

// Run executes every spec, at most Workers concurrently, and returns
// the results in spec order. If any spec fails, the error of the
// lowest-indexed failing spec is returned (the remaining specs still
// run to completion so the cache stays warm for later requests).
func (r *Runner) Run(specs []Spec) ([]dsa.Result, error) {
	outs := r.RunAll(specs)
	results := make([]dsa.Result, len(outs))
	for i, o := range outs {
		if o.Err != nil {
			return nil, fmt.Errorf("%s: %w", specs[i].Key(), o.Err)
		}
		results[i] = o.Res
	}
	return results, nil
}

// RunAll is the graceful-degradation entry point: every spec runs to a
// terminal Outcome — result or classified *RunError — and no failure
// aborts the batch. Outcomes are in spec order; successful cells obey
// the same determinism contract as Run.
func (r *Runner) RunAll(specs []Spec) []Outcome {
	n := len(specs)
	outs := make([]Outcome, n)
	do := func(i int) {
		res, rerr := r.resolve(specs[i])
		if rerr != nil {
			outs[i] = Outcome{Err: rerr}
		} else {
			outs[i] = Outcome{Res: res}
		}
	}

	workers := r.cfg.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := range specs {
			do(i)
		}
		return outs
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				do(i)
			}
		}()
	}
	for i := range specs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return outs
}

// resolve returns the outcome for s, executing it (with panic isolation)
// if no other request has, or waiting on / reusing the cached run
// otherwise.
func (r *Runner) resolve(s Spec) (dsa.Result, *RunError) {
	key := s.Hash()
	r.mu.Lock()
	if e, ok := r.cache[key]; ok {
		r.stats.Cached++
		r.mu.Unlock()
		<-e.done
		return e.res, e.err
	}
	e := &entry{done: make(chan struct{})}
	r.cache[key] = e
	r.mu.Unlock()

	// Crash-safe resume: a journaled result is a pure function of the
	// spec, so loading it is indistinguishable from re-executing.
	if res, ok := r.ckpt.load(s); ok {
		e.res = res
		close(e.done)
		r.mu.Lock()
		r.stats.Resumed++
		r.mu.Unlock()
		return e.res, nil
	}

	r.mu.Lock()
	r.stats.Launched++
	r.running++
	if r.running > r.stats.PeakWorkers {
		r.stats.PeakWorkers = r.running
	}
	r.mu.Unlock()

	start := time.Now()
	res, err := r.execShielded(s)
	run := RunStat{Key: s.Key(), Wall: time.Since(start)}
	var rerr *RunError
	if err != nil {
		rerr = classify(s, err)
		res = dsa.Result{}
		run.Err = rerr.Kind.String()
	} else {
		run.Cycles = res.Cycles
	}

	e.res, e.err = res, rerr
	close(e.done)

	r.mu.Lock()
	r.running--
	r.stats.Wall += run.Wall
	r.stats.Runs = append(r.stats.Runs, run)
	if rerr != nil {
		r.stats.Failed++
	} else {
		r.stats.SimCycles += res.Cycles
	}
	r.mu.Unlock()

	if rerr == nil && r.ckpt != nil {
		if err := r.ckpt.save(s, res); err != nil {
			// The in-memory result is still valid; surface via Stats.
			r.mu.Lock()
			r.stats.CheckpointErrs++
			r.mu.Unlock()
		} else {
			r.mu.Lock()
			r.stats.Checkpointed++
			r.mu.Unlock()
		}
	}
	return res, rerr
}

// execShielded isolates a per-spec panic to that spec.
func (r *Runner) execShielded(s Spec) (res dsa.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &panicError{val: p, stack: debug.Stack()}
		}
	}()
	return r.exec(s)
}

// Stats returns a snapshot of the runner's counters.
func (r *Runner) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	s.Runs = append([]RunStat(nil), r.stats.Runs...)
	s.Workers = r.cfg.Workers
	return s
}
