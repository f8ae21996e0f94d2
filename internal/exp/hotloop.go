package exp

import (
	"fmt"
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
			if _, ok := c.RespQ.Pop(); !ok {
				break
			}
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

// Hotloop measures the controller's microcode step loop on both executor
// backends and reports ns-per-action plus the fast path's speedup over
// the interpreter. The action counts are deterministic (and byte-stable
// in baselines); the nanosecond metrics are wall-clock and
// machine-dependent — baseline comparisons must use a relative
// tolerance, which is what the `make bench-diff` gate does with the
// speedup ratio.
func Hotloop() (*Out, error) {
	out := &Out{
		ID:      "hotloop",
		Table:   stats.NewTable("Controller hot-loop microbenchmark", "executor", "ns/action", "Mactions/s"),
		Metrics: map[string]float64{},
		Notes: []string{
			"wall-clock microbenchmark: ns/action and speedup are machine-dependent; action counts are deterministic",
		},
	}
	measure := func(name string, exec ctrl.ExecPath) (float64, error) {
		if _, _, err := hotloopRun(exec, hotloopReqs/8); err != nil { // warmup
			return 0, err
		}
		actions, wall, err := hotloopRun(exec, hotloopReqs)
		if err != nil {
			return 0, err
		}
		ns := float64(wall.Nanoseconds()) / float64(actions)
		out.Metrics[name+"_ns_per_action"] = ns
		out.Metrics["actions"] = float64(actions)
		out.Table.Add(name, fmt.Sprintf("%.1f", ns), fmt.Sprintf("%.1f", 1e3/ns))
		return ns, nil
	}
	nsInterp, err := measure("interp", ctrl.ExecInterp)
	if err != nil {
		return nil, err
	}
	nsFast, err := measure("fast", ctrl.ExecFast)
	if err != nil {
		return nil, err
	}
	out.Metrics["speedup_x"] = nsInterp / nsFast
	out.Notes = append(out.Notes,
		fmt.Sprintf("pre-decoded fast path is %.2fx the interpreter on this host", nsInterp/nsFast))
	return out, nil
}
