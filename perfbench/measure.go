package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// workload is one benchmark input set. pass builds a fresh simulator
// instance, runs it and validates its output; every pass of a workload
// must simulate exactly the same thing.
type workload interface {
	pass(pc *passCtx) (passStats, error)
}

// passStats is what one pass simulated.
type passStats struct {
	cycles    uint64 // simulated cycles
	attempted int    // operations: sweep cells, serve requests, coh script ops
	failed    int
	completed int
	counts    map[string]float64 // per-layer simulated counts
}

// passCtx collects a pass's set-up cost: host time in the public input
// generators and system constructors it calls before simulating. With
// setupOnly set the pass returns once set up, unchecked.
type passCtx struct {
	setupOnly      bool
	inputs, system time.Duration
	probeHeap      bool   // force a GC at the end of set-up and record the live heap
	heapLive       uint64 // largest live heap seen at the end of a set-up
	excluded       cost   // host cost of work the pass does that the program does not
}

func (pc *passCtx) timeInputs(f func()) {
	t := time.Now()
	f()
	pc.inputs += time.Since(t)
}

func (pc *passCtx) timeSystem(f func()) {
	t := time.Now()
	f()
	pc.system += time.Since(t)
}

// setupDone marks the end of a set-up, before the first simulated cycle.
// keep holds what the set-up built, so the heap probe counts it as live.
func (pc *passCtx) setupDone(keep ...any) {
	if pc.probeHeap {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		pc.heapLive = max(pc.heapLive, ms.HeapAlloc)
	}
	runtime.KeepAlive(keep)
}

// exclude runs f, work the benchmark does but the program under test does
// not, and keeps its host cost out of the pass's wall, CPU, allocation and
// GC figures, and its samples out of a traced pass's profile. It ends with
// a forced GC, so the program's next step starts from a collected heap as
// a pass does.
func (pc *passCtx) exclude(f func()) {
	pc.excluded = pc.excluded.plus(costOf(func() {
		pprof.Do(context.Background(), pprof.Labels(excludedLabel[0], excludedLabel[1]), func(context.Context) {
			f()
			runtime.GC()
		})
	}))
}

// cost is the host cost of one stretch of the benchmark.
type cost struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
	gcs            uint32
	gcPause        time.Duration
}

// costOf runs f and measures it.
func costOf(f func()) cost {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	f()
	wall := time.Since(t0)
	cpu := cpuTime() - c0
	runtime.ReadMemStats(&m1)
	return cost{
		wall: wall, cpu: cpu,
		mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc,
		gcs:     m1.NumGC - m0.NumGC,
		gcPause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
	}
}

func (c cost) plus(d cost) cost {
	return cost{c.wall + d.wall, c.cpu + d.cpu, c.mallocs + d.mallocs, c.bytes + d.bytes, c.gcs + d.gcs, c.gcPause + d.gcPause}
}

func (c cost) minus(d cost) cost {
	return cost{c.wall - d.wall, c.cpu - d.cpu, c.mallocs - d.mallocs, c.bytes - d.bytes, c.gcs - d.gcs, c.gcPause - d.gcPause}
}

// pass is the host-side record of one pass.
type pass struct {
	cost
	sim            passStats
	inputs, system time.Duration
}

// runPass runs one pass from a freshly collected heap. With prof non-nil
// the pass runs under the CPU profiler, which writes to prof.
func runPass(w workload, pc *passCtx, prof *bytes.Buffer) (pass, error) {
	runtime.GC()
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return pass{}, err
		}
	}
	var st passStats
	var err error
	c := costOf(func() { st, err = w.pass(pc) })
	if prof != nil {
		pprof.StopCPUProfile()
	}
	return pass{cost: c.minus(pc.excluded), sim: st, inputs: pc.inputs, system: pc.system}, err
}

// cpuTime is the process's user+system CPU time, GC workers included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// minPasses is the fewest measured passes a run makes, whatever its
// budget; a traced run alternates plain and profiled passes.
const minPasses = 4

// measure runs an untimed warm-up pass, which also probes the live heap
// after set-up, then measured passes until the next one would overrun
// the budget. Every pass must repeat the warm-up's simulated results.
// Set-up takes milliseconds and varies more than a whole pass, so after
// each pass the run repeats set-up alone for a tenth of the pass's time,
// at least once, and set-up figures are medians over both.
func measure(w workload, budget time.Duration, trace bool) (report, error) {
	warmCtx := passCtx{probeHeap: true}
	warm, err := runPass(w, &warmCtx, nil)
	if err != nil {
		return report{}, err
	}
	ref := warm.sim
	var plain, profiled, setups []pass
	samples := map[string]float64{}
	rep := report{Correct: true, Attempted: ref.attempted, Failed: ref.failed}
	start := time.Now()
	last := warm.wall
	// A traced run also goes on until its profile holds a sample.
	for i := 0; i < minPasses || time.Since(start)+last < budget || (trace && len(samples) == 0); i++ {
		t0 := time.Now()
		var prof *bytes.Buffer
		if trace && i%2 == 1 {
			prof = new(bytes.Buffer)
		}
		p, err := runPass(w, &passCtx{}, prof)
		if err != nil {
			return report{}, err
		}
		if prof != nil {
			if err := addSamples(samples, prof.Bytes()); err != nil {
				return report{}, err
			}
			profiled = append(profiled, p)
		} else {
			plain = append(plain, p)
			setups = append(setups, p)
		}
		for t1 := time.Now(); ; {
			r, err := runPass(w, &passCtx{setupOnly: true}, nil)
			if err != nil {
				return report{}, err
			}
			setups = append(setups, r)
			if time.Since(t1) >= p.wall/10 {
				break
			}
		}
		if !reflect.DeepEqual(p.sim, ref) {
			rep.Correct = false
		}
		rep.Attempted += p.sim.attempted
		rep.Failed += p.sim.failed
		last = time.Since(t0)
	}
	if ref.failed > 0 {
		rep.Correct = false
	}
	cycles := float64(ref.cycles)
	var vals map[string]float64
	var specs []metricSpec
	if trace {
		specs = perLayer
		vals = map[string]float64{}
		var total float64
		for _, v := range samples {
			total += v
		}
		for _, l := range layers {
			vals[l+".self_share"] = ratio(samples[l], total)
		}
		for k, v := range ref.counts {
			vals[k] = v
		}
		vals["runtime.gc_cycles"] = medianOf(plain, func(p pass) float64 { return float64(p.gcs) })
		vals["runtime.gc_pause_s"] = medianOf(plain, func(p pass) float64 { return p.gcPause.Seconds() })
		vals["setup.inputs_s"] = medianOf(setups, func(p pass) float64 { return p.inputs.Seconds() })
		vals["setup.system_s"] = medianOf(setups, func(p pass) float64 { return p.system.Seconds() })
		wallOf := func(p pass) float64 { return p.wall.Seconds() }
		vals["trace.overhead_frac"] = ratio(medianOf(profiled, wallOf), medianOf(plain, wallOf)) - 1
	} else {
		specs = endToEnd
		vals = map[string]float64{
			"wall_s":                medianOf(plain, func(p pass) float64 { return p.wall.Seconds() }),
			"cpu_s":                 medianOf(plain, func(p pass) float64 { return p.cpu.Seconds() }),
			"setup_s":               medianOf(setups, func(p pass) float64 { return (p.inputs + p.system).Seconds() }),
			"sim_mcycles_per_s":     medianOf(plain, func(p pass) float64 { return cycles / p.wall.Seconds() / 1e6 }),
			"allocs_per_kcycle":     medianOf(plain, func(p pass) float64 { return float64(p.mallocs) / cycles * 1000 }),
			"alloc_bytes_per_cycle": medianOf(plain, func(p pass) float64 { return float64(p.bytes) / cycles }),
			"heap_live_mb":          float64(warmCtx.heapLive) / 1e6,
			"sim_cycles":            cycles,
			"goodput_per_kcycle":    ratio(float64(ref.completed)*1000, cycles),
			"served_frac":           ratio(float64(ref.completed), float64(ref.attempted)),
		}
	}
	rep.Metrics = map[string]metric{}
	for _, s := range specs {
		rep.Metrics[s.name] = metric{Value: vals[s.name], Unit: s.unit}
	}
	for name := range vals {
		if _, ok := rep.Metrics[name]; !ok {
			return report{}, fmt.Errorf("internal: value for undeclared metric %q", name)
		}
	}
	return rep, nil
}

func medianOf(ps []pass, f func(pass) float64) float64 {
	vs := make([]float64, len(ps))
	for i, p := range ps {
		vs[i] = f(p)
	}
	return median(vs)
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
