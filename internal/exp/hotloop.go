package exp

import (
	"fmt"
	"sort"
	"time"

	"xcache/internal/ctrl"
	"xcache/internal/dataram"
	"xcache/internal/dram"
	"xcache/internal/energy"
	"xcache/internal/mem"
	"xcache/internal/metatag"
	"xcache/internal/program"
	"xcache/internal/sim"
	"xcache/internal/stats"
)

// hotloopSpec is an ALU-dense spin: ~10 actions per loop iteration, 96
// iterations per request, no DRAM traffic — so nearly every simulated
// cycle is spent inside the controller's microcode step loop, which is
// exactly the code the pre-decoded executor accelerates.
func hotloopSpec() program.Spec {
	return program.Spec{
		Name: "hotloop",
		Transitions: []program.Transition{
			{State: "Default", Event: "MetaLoad", Asm: `
				li r4, 96
				li r5, 3
				li r6, 7
			loop:
				add r6, r6, r5
				xor r7, r6, r4
				shl r8, r7, 3
				shr r9, r8, 2
				and r10, r9, r6
				or r11, r10, r5
				mul r12, r11, r5
				addi r6, r12, 13
				dec r4
				bnz r4, loop
				enqresp r6, OK
				abort
			`},
		},
	}
}

// hotloopRun executes reqs spins on the given executor backend and
// returns the action count (deterministic) and the wall time (not).
func hotloopRun(exec ctrl.ExecPath, reqs int) (actions uint64, wall time.Duration, err error) {
	prog, err := hotloopSpec().Compile()
	if err != nil {
		return 0, 0, err
	}
	k := sim.NewKernel()
	img := mem.NewImage()
	d := dram.New(k, dram.DefaultConfig(), img)
	meter := &energy.Counters{}
	tags := metatag.New(metatag.Config{Sets: 64, Ways: 4, KeyWords: 1}, meter)
	data := dataram.New(dataram.Config{Sectors: 64, WordsPerSector: 4}, meter)
	c, err := ctrl.New(k, ctrl.Config{NumActive: 8, NumExe: 4, Exec: exec},
		prog, tags, data, d.Req, d.Resp, meter)
	if err != nil {
		return 0, 0, err
	}
	sent, done := 0, 0
	k.Add(sim.ComponentFunc(func(cy sim.Cycle) {
		for {
			r, ok := c.RespQ.Pop()
			if !ok {
				break
			}
			r.Data.Release()
			done++
		}
		for sent < reqs {
			r := ctrl.MetaReq{ID: uint64(sent + 1), Op: ctrl.MetaLoad,
				Key: metatag.Key{uint64(sent), 0}, Issued: cy}
			if !c.ReqQ.Push(r) {
				return
			}
			sent++
		}
	}))
	start := time.Now()
	if !k.RunUntil(func() bool { return done >= reqs }, 50_000_000) {
		return 0, 0, fmt.Errorf("hotloop: %d/%d responses after cycle budget", done, reqs)
	}
	wall = time.Since(start)
	if tr := c.Trap(); tr != nil {
		return 0, 0, fmt.Errorf("hotloop trapped: %w", tr)
	}
	return c.Stats().Actions, wall, nil
}

// hotloopReqs is the number of spins each timed executor run serves.
const hotloopReqs = 512

// hotloopPairs is how many interleaved interp/fast timing pairs Hotloop
// takes. One pair's speedup varies on a shared host by far more than the
// 5% the bench-diff gate allows; the median of many pairs does not.
const hotloopPairs = 15

// Hotloop measures the controller's microcode step loop on both executor
// backends and reports ns-per-action plus the fast path's speedup over
// the interpreter. It times hotloopPairs pairs, alternating which
// executor runs first, and reports each metric's median over the pairs;
// speedup_q1 and speedup_q3 give the speedup's quartiles. The action
// counts are deterministic (and byte-stable in baselines); the
// nanosecond metrics are wall-clock and machine-dependent — baseline
// comparisons must use a relative tolerance, which is what the
// `make bench-diff` gate does with the median speedup.
func Hotloop() (*Out, error) {
	out := &Out{
		ID:      "hotloop",
		Table:   stats.NewTable("Controller hot-loop microbenchmark", "executor", "ns/action", "Mactions/s"),
		Metrics: map[string]float64{},
		Notes: []string{
			"wall-clock microbenchmark: ns/action and speedup are machine-dependent; action counts are deterministic",
		},
	}
	execs := [2]ctrl.ExecPath{ctrl.ExecInterp, ctrl.ExecFast}
	for _, exec := range execs {
		if _, _, err := hotloopRun(exec, hotloopReqs/8); err != nil { // warmup
			return nil, err
		}
	}
	var ns [2][]float64 // per executor, one sample per pair
	var speedups []float64
	for i := 0; i < hotloopPairs; i++ {
		var pair [2]float64
		for j := 0; j < 2; j++ {
			e := (i + j) % 2 // even pairs time the interpreter first
			actions, wall, err := hotloopRun(execs[e], hotloopReqs)
			if err != nil {
				return nil, err
			}
			out.Metrics["actions"] = float64(actions)
			pair[e] = float64(wall.Nanoseconds()) / float64(actions)
		}
		for e := range pair {
			ns[e] = append(ns[e], pair[e])
		}
		speedups = append(speedups, pair[0]/pair[1])
	}
	for e, name := range []string{"interp", "fast"} {
		m := quantile(ns[e], 0.5)
		out.Metrics[name+"_ns_per_action"] = m
		out.Table.Add(name, fmt.Sprintf("%.1f", m), fmt.Sprintf("%.1f", 1e3/m))
	}
	med, q1, q3 := quantile(speedups, 0.5), quantile(speedups, 0.25), quantile(speedups, 0.75)
	out.Metrics["speedup_x"] = med
	out.Metrics["speedup_q1"] = q1
	out.Metrics["speedup_q3"] = q3
	out.Notes = append(out.Notes,
		fmt.Sprintf("pre-decoded fast path is %.2fx the interpreter on this host (median of %d interleaved pairs, quartiles %.2f-%.2f)",
			med, hotloopPairs, q1, q3))
	return out, nil
}

// quantile returns the p-quantile of xs, interpolating linearly between
// the two nearest order statistics. xs is sorted in place.
func quantile(xs []float64, p float64) float64 {
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}
