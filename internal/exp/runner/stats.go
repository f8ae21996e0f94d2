package runner

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Stats summarises what a Runner did: how many simulations were
// launched vs served from the run cache, how many failed, the total
// simulated cycles and cumulative simulation wall time (sum over
// executions — larger than elapsed time when workers overlap), and the
// peak number of concurrently executing simulations.
//
// Counter contract (pinned by TestStatsConsistencyUnderFailure): every
// resolve request increments exactly one of Launched or Cached, and each
// launch executes its spec exactly once, so Runs has one record per
// launch. Failed counts launches that failed; a failure is memoised like
// a result, so a repeated request for a failed spec counts as Cached.
type Stats struct {
	Workers     int
	Launched    int
	Cached      int
	Failed      int
	PeakWorkers int

	SimCycles uint64
	Wall      time.Duration
	Runs      []RunStat
}

// RunStat records one execution (non-cached). Err is empty on success
// and the taxonomy kind ("stall", "panic", ...) on failure.
type RunStat struct {
	Key    string
	Cycles uint64
	Wall   time.Duration
	Err    string
}

// HitRate is the fraction of requests served from the run cache.
func (s Stats) HitRate() float64 {
	total := s.Launched + s.Cached
	if total == 0 {
		return 0
	}
	return float64(s.Cached) / float64(total)
}

// String renders the summary block xcache-bench -v prints.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "runner: %d workers (peak %d concurrent), %d runs launched, %d cache hits (%.0f%%), %d failed\n",
		s.Workers, s.PeakWorkers, s.Launched, s.Cached, 100*s.HitRate(), s.Failed)
	fmt.Fprintf(&b, "runner: %d simulated cycles, %.2fs cumulative simulation time\n",
		s.SimCycles, s.Wall.Seconds())
	return b.String()
}

// Detail renders the per-execution table, slowest first (ties broken by
// key so the rendering is stable for equal durations). Failed executions
// carry their taxonomy kind.
func (s Stats) Detail() string {
	runs := append([]RunStat(nil), s.Runs...)
	sort.Slice(runs, func(i, j int) bool {
		if runs[i].Wall != runs[j].Wall {
			return runs[i].Wall > runs[j].Wall
		}
		return runs[i].Key < runs[j].Key
	})
	var b strings.Builder
	for _, r := range runs {
		fmt.Fprintf(&b, "%8.3fs  %12d cyc  %s", r.Wall.Seconds(), r.Cycles, r.Key)
		if r.Err != "" {
			fmt.Fprintf(&b, "  [FAILED: %s]", r.Err)
		}
		b.WriteString("\n")
	}
	return b.String()
}
