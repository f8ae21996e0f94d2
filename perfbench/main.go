// Command perfbench is the repository's end-to-end simulator benchmark.
// It runs one workload for a fixed host-time budget on a single
// simulation goroutine, checks every simulated output, and prints one
// JSON object as the last line of standard output:
//
//	perfbench --workload sweep-xcache --seed 0 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured on untraced passes.
// --trace 1 reports the per-layer metrics: host CPU shares from a CPU
// profile taken around the benchmark's own calls into the simulator, and
// the simulated counts each layer keeps. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricSpec names one printed metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the --trace 0 metrics, in print order.
var endToEnd = []metricSpec{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"sim_mcycles_per_s", "Mcycles/s"},
	{"allocs_per_kcycle", "allocs/kcycle"},
	{"alloc_bytes_per_cycle", "B/cycle"},
	{"heap_live_mb", "MB"},
	{"sim_cycles", "cycles"},
	{"goodput_per_kcycle", "ops/kcycle"},
	{"served_frac", "fraction"},
}

// perLayer lists the --trace 1 metrics, in print order. A count a
// workload's layers do not expose prints as 0 (see README.md).
var perLayer = append(shareSpecs(), []metricSpec{
	{"dram.accesses_per_kcycle", "1/kcycle"},
	{"dram.row_hit_rate", "fraction"},
	{"dram.avg_latency_cycles", "cycles"},
	{"ctrl.hit_rate", "fraction"},
	{"ctrl.avg_load_to_use_cycles", "cycles"},
	{"ctrl.l2u_p99_cycles", "cycles"},
	{"addrcache.hit_rate", "fraction"},
	{"addrcache.avg_load_to_use_cycles", "cycles"},
	{"sim.queue_pushes_per_cycle", "1/cycle"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"setup.inputs_s", "s"},
	{"setup.system_s", "s"},
	{"serve.retries", "count"},
	{"serve.failed", "count"},
	{"serve.p50_cycles", "cycles"},
	{"serve.p99_cycles", "cycles"},
	{"serve.p999_cycles", "cycles"},
	{"serve.backpressure_cycles", "cycles"},
	{"serve.breaker_trips", "count"},
	{"serve.resteered", "count"},
	{"serve.slo_attainment_p7", "fraction"},
	{"hier.l1_hit_rate", "fraction"},
	{"hier.txns", "count"},
	{"hier.invals_per_op", "1/op"},
	{"hier.writebacks", "count"},
	{"hier.back_invals", "count"},
	{"trace.overhead_frac", "fraction"},
}...)

func shareSpecs() []metricSpec {
	var out []metricSpec
	for _, l := range layers {
		out = append(out, metricSpec{l + ".self_share", "fraction"})
	}
	return out
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 0, "input seed; 0 runs the pinned inputs")
	seconds := fs.Float64("seconds", 20, "host seconds spent in measured passes")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a profiled run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	w, err := newWorkload(*name, *seed, false)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	// One simulation goroutine; a second core is left to the GC workers.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	rep, err := measure(w, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct || rep.Failed > 0 {
		return 1
	}
	return 0
}
