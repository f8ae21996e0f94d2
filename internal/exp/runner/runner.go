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
// completed run in a cache keyed by Spec.Key, so the same point
// requested by several figures (the baseline config appears in Fig 4,
// Fig 14 and Fig 15) simulates exactly once per process.
//
// Determinism contract: Run returns results in spec order, each result
// a pure function of its Spec. Worker count and completion order affect
// only wall time and Stats — never the returned values. Errors are
// reported for the lowest-indexed failing spec, again independent of
// scheduling.
//
// Resilience: each spec executes once, and its failure resolves to a
// structured *RunError. A failure is a pure function of its spec, so it
// is memoised like a result: a failing point shared by several figures
// also executes once. Worker panics are isolated to their spec.
type Runner struct {
	workers int

	// exec is the execution function (Spec.Execute in production); a seam
	// so resilience tests can script failures without a real simulation.
	exec func(Spec) (dsa.Result, error)

	mu      sync.Mutex
	cache   map[string]*entry
	stats   Stats
	running int // workers currently executing a simulation
}

// entry is one run-cache slot. done closes when the simulation
// finishes; until then other requesters for the same key block on it
// instead of launching a duplicate run.
type entry struct {
	done chan struct{}
	res  dsa.Result
	err  *RunError
}

// New returns a Runner with the given worker count; workers <= 0 uses
// GOMAXPROCS. New(1) gives serial execution with the same caching and
// merge semantics.
func New(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers, cache: map[string]*entry{}, exec: Spec.Execute}
}

// Workers returns the configured pool size.
func (r *Runner) Workers() int { return r.workers }

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

	workers := r.workers
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
	key := s.Key()
	r.mu.Lock()
	if e, ok := r.cache[key]; ok {
		r.stats.Cached++
		r.mu.Unlock()
		<-e.done
		return e.res, e.err
	}
	e := &entry{done: make(chan struct{})}
	r.cache[key] = e
	r.stats.Launched++
	r.running++
	if r.running > r.stats.PeakWorkers {
		r.stats.PeakWorkers = r.running
	}
	r.mu.Unlock()

	start := time.Now()
	res, err := r.execShielded(s)
	run := RunStat{Key: key, Wall: time.Since(start)}
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
	s.Workers = r.workers
	return s
}
