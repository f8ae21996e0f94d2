package ctrl

// Differential harness for the two microcode executors: the reference
// interpreter (exec.go) and the pre-decoded fast path (exec_fast.go) are
// run in lockstep — two identical rigs, one cycle at a time, the same
// request schedule — and every observable must match every cycle: the
// full Stats snapshot, the trap register, the response stream, the trace
// stream, the energy meter and the storage occupancy. Any divergence is
// reported at the first cycle it appears, which pins the faulting
// routine step rather than a downstream symptom.
//
// The harness consumes each response the way a datapath does: it copies
// the payload out and releases it. At the end of a run every payload
// buffer either rig lent is back with its pool (payload.Audit). The
// poisoned variant repeats every case with the payload poison hook on,
// so a component that reads a buffer after its release diverges.

import (
	"math/bits"
	"slices"
	"testing"

	"xcache/internal/dataram"
	"xcache/internal/metatag"
	"xcache/internal/payload"
	"xcache/internal/program"
	"xcache/internal/sim"
)

// seenResp is a response as the harness consumed it: the payload words
// are copied out before the payload is released.
type seenResp struct {
	MetaResp
	words []uint64
}

// consume pops every response of c.
func consume(c *Controller, into []seenResp) []seenResp {
	for {
		r, ok := c.RespQ.Pop()
		if !ok {
			return into
		}
		words := slices.Clone(r.Data.Slice())
		if slices.Contains(words, payload.PoisonWord) {
			panic("ctrl: a response carries a poisoned word")
		}
		r.Data.Release()
		into = append(into, seenResp{r, words})
	}
}

// traceLog is a TraceSink that records the stream.
type traceLog struct{ evs []TraceEvent }

func (l *traceLog) Trace(ev TraceEvent) { l.evs = append(l.evs, ev) }

// diffReq schedules one meta request for the lockstep driver.
type diffReq struct {
	at      sim.Cycle
	op      MetaOp
	key     uint64
	payload uint64
}

// diffPair is one executor pair under lockstep comparison.
type diffPair struct {
	ri, rf *rig      // interpreter / fast-path rigs
	ti, tf *traceLog // their trace streams
}

// newDiffPair builds two rigs identical in every respect except
// Config.Exec and attaches trace sinks to both.
func newDiffPair(t *testing.T, cfg Config, spec program.Spec,
	tagCfg metatag.Config, dataCfg dataram.Config) *diffPair {
	t.Helper()
	ci, cf := cfg, cfg
	ci.Exec, cf.Exec = ExecInterp, ExecFast
	p := &diffPair{
		ri: newRig(t, ci, spec, tagCfg, dataCfg),
		rf: newRig(t, cf, spec, tagCfg, dataCfg),
		ti: &traceLog{}, tf: &traceLog{},
	}
	if p.ri.c.fast != nil {
		t.Fatal("interpreter rig has a pre-decoded table")
	}
	if p.rf.c.fast == nil {
		t.Fatal("fast rig has no pre-decoded table")
	}
	p.ri.c.SetTraceSink(p.ti)
	p.rf.c.SetTraceSink(p.tf)
	return p
}

// lockstep drives both rigs through the schedule one cycle at a time and
// asserts identical observable state at every cycle boundary.
func (p *diffPair) lockstep(t *testing.T, reqs []diffReq, maxCycles int) {
	t.Helper()
	var nextID uint64
	pushed := 0
	var respI, respF []seenResp
	drained := 0 // consecutive idle cycles after the schedule completes

	for cy := 0; cy < maxCycles; cy++ {
		// Admit due requests to both sides; queue acceptance must agree.
		for pushed < len(reqs) && reqs[pushed].at <= p.ri.k.Cycle() {
			q := reqs[pushed]
			req := MetaReq{ID: nextID + 1, Op: q.op, Key: metatag.Key{q.key, 0},
				Payload: q.payload, Issued: p.ri.k.Cycle()}
			okI := p.ri.c.ReqQ.Push(req)
			okF := p.rf.c.ReqQ.Push(req)
			if okI != okF {
				t.Fatalf("cycle %d: request %d admission diverged: interp=%t fast=%t",
					p.ri.k.Cycle(), req.ID, okI, okF)
			}
			if !okI {
				break // full on both sides; retry next cycle
			}
			nextID++
			pushed++
		}

		p.ri.k.Run(1)
		p.rf.k.Run(1)

		respI = consume(p.ri.c, respI)
		respF = consume(p.rf.c, respF)
		p.compareCycle(t, respI, respF)

		if pushed == len(reqs) && p.ri.c.Idle() && p.rf.c.Idle() &&
			p.ri.d.Idle() && p.rf.d.Idle() {
			if drained++; drained >= 3 {
				break
			}
		} else {
			drained = 0
		}
	}
	if pushed < len(reqs) {
		t.Fatalf("schedule incomplete: %d/%d requests admitted in %d cycles",
			pushed, len(reqs), maxCycles)
	}
	if len(respI) == 0 {
		t.Fatal("lockstep run produced no responses")
	}
	p.compareFinal(t, respI, respF)
	for _, r := range []*rig{p.ri, p.rf} {
		if err := payload.Audit(r.k.Components()); err != nil {
			t.Fatal(err)
		}
	}
}

// compareCycle checks the per-cycle observables.
func (p *diffPair) compareCycle(t *testing.T, respI, respF []seenResp) {
	t.Helper()
	cy := p.ri.k.Cycle()
	checkRunningTotals(t, "interp", p.ri.c, cy)
	checkRunningTotals(t, "fast", p.rf.c, cy)
	if si, sf := p.ri.c.Stats(), p.rf.c.Stats(); si != sf {
		t.Fatalf("cycle %d: stats diverged\ninterp: %+v\nfast:   %+v", cy, si, sf)
	}
	if len(respI) != len(respF) {
		t.Fatalf("cycle %d: response count diverged: interp=%d fast=%d", cy, len(respI), len(respF))
	}
	for i := range respI {
		if !sameResp(respI[i], respF[i]) {
			t.Fatalf("cycle %d: response %d diverged\ninterp: %+v\nfast:   %+v",
				cy, i, respI[i], respF[i])
		}
	}
	ti, tf := p.ri.c.Trap(), p.rf.c.Trap()
	switch {
	case (ti == nil) != (tf == nil):
		t.Fatalf("cycle %d: trap presence diverged: interp=%v fast=%v", cy, ti, tf)
	case ti != nil && *ti != *tf:
		t.Fatalf("cycle %d: trap diverged\ninterp: %+v\nfast:   %+v", cy, *ti, *tf)
	}
}

// compareFinal checks the end-of-run observables the per-cycle pass does
// not cover: energy accounting, trace streams and their agreement with
// Stats, storage occupancy.
func (p *diffPair) compareFinal(t *testing.T, respI, respF []seenResp) {
	t.Helper()
	if *p.ri.meter != *p.rf.meter {
		t.Fatalf("energy meters diverged\ninterp: %+v\nfast:   %+v", *p.ri.meter, *p.rf.meter)
	}
	checkTraceClasses(t, "interp", p.ti.evs, p.ri.c.Stats())
	checkTraceClasses(t, "fast", p.tf.evs, p.rf.c.Stats())
	if len(p.ti.evs) != len(p.tf.evs) {
		t.Fatalf("trace length diverged: interp=%d fast=%d", len(p.ti.evs), len(p.tf.evs))
	}
	for i := range p.ti.evs {
		if p.ti.evs[i] != p.tf.evs[i] {
			t.Fatalf("trace event %d diverged\ninterp: %+v\nfast:   %+v",
				i, p.ti.evs[i], p.tf.evs[i])
		}
	}
	if li, lf := p.ri.c.Tags.Live(), p.rf.c.Tags.Live(); li != lf {
		t.Fatalf("live meta-tag entries diverged: interp=%d fast=%d", li, lf)
	}
	if fi, ff := p.ri.c.Data.FreeSectors(), p.rf.c.Data.FreeSectors(); fi != ff {
		t.Fatalf("free data sectors diverged: interp=%d fast=%d", fi, ff)
	}
	_ = respI
	_ = respF
}

// checkTraceClasses pins the trace to the controller's own accounting:
// every TraceReq classified ClassHit is one Stats.Hits and every
// ClassMiss one Stats.Misses (a ClassMerge counts in neither).
func checkTraceClasses(t *testing.T, side string, evs []TraceEvent, st Stats) {
	t.Helper()
	var hits, misses uint64
	for _, ev := range evs {
		if ev.Kind != TraceReq {
			continue
		}
		switch ev.Class {
		case ClassHit:
			hits++
		case ClassMiss:
			misses++
		}
	}
	if hits != st.Hits || misses != st.Misses {
		t.Fatalf("%s: trace classifies %d hits and %d misses, Stats counts %d and %d",
			side, hits, misses, st.Hits, st.Misses)
	}
}

// checkRunningTotals recomputes the controller's running totals from its
// walker contexts: live registers over active walkers (the coroutine-mode
// Fig 7 rate) and pending messages over all walkers.
func checkRunningTotals(t *testing.T, side string, c *Controller, cy sim.Cycle) {
	t.Helper()
	var live uint64
	pending := 0
	for i := range c.walkers {
		w := &c.walkers[i]
		if w.active {
			live += uint64(bits.OnesCount32(w.liveMask))
		}
		pending += len(w.pending)
	}
	if c.liveRegs != live || c.pendingMsgs != pending {
		t.Fatalf("cycle %d: %s: running totals %d live registers and %d pending messages, contexts hold %d and %d",
			cy, side, c.liveRegs, c.pendingMsgs, live, pending)
	}
}

func sameResp(a, b seenResp) bool {
	return a.ID == b.ID && a.Status == b.Status && a.Value == b.Value &&
		a.Words == b.Words && slices.Equal(a.words, b.words)
}

// TestExecDiffLockstep sweeps every walker program the unit suite uses —
// and several controller configurations — through the lockstep harness.
func TestExecDiffLockstep(t *testing.T) { runExecDiffCases(t) }

// TestExecDiffLockstepPoisoned repeats the lockstep sweep and the fault
// recovery run with the payload poison hook on.
func TestExecDiffLockstepPoisoned(t *testing.T) {
	payload.SetPoison(true)
	defer payload.SetPoison(false)
	runExecDiffCases(t)
	TestExecDiffFaultRecovery(t)
}

func runExecDiffCases(t *testing.T) {
	// A load mix with hits, misses, not-founds, duplicate keys in flight
	// (waiter merging) and an eventual re-walk of an evicted key.
	loadMix := func(n int) []diffReq {
		var reqs []diffReq
		for i := 0; i < n; i++ {
			key := uint64(i * 7 % 24)
			if i%9 == 8 {
				key = 100 + uint64(i) // not-found: beyond the array bound
			}
			reqs = append(reqs, diffReq{at: sim.Cycle(i * 3), op: MetaLoad, key: key})
			if i%5 == 4 {
				// Duplicate while the first may still be walking.
				reqs = append(reqs, diffReq{at: sim.Cycle(i*3 + 1), op: MetaLoad, key: key})
			}
		}
		return reqs
	}
	storeMix := func(n int) []diffReq {
		var reqs []diffReq
		for i := 0; i < n; i++ {
			key := uint64(i % 12)
			op := MetaLoad
			switch i % 4 {
			case 1:
				op = MetaStore
			case 3:
				op = MetaStoreMerge
			}
			reqs = append(reqs, diffReq{at: sim.Cycle(i * 2), op: op, key: key, payload: uint64(i) * 3})
		}
		return reqs
	}

	cases := []struct {
		name    string
		cfg     Config
		spec    program.Spec
		tagCfg  metatag.Config
		dataCfg dataram.Config
		reqs    []diffReq
		array   int // fillArray size, 0 → multiFill element layout
		// clogMem makes MemReq refuse pushes before this cycle, so an
		// enqfilli stalls on a full queue for that long.
		clogMem sim.Cycle
		traps   bool // the case drives a routine into a trap
	}{
		{name: "arraywalk_load_mix", cfg: Config{NumActive: 8},
			spec: arrayWalkSpec(), tagCfg: defaultTagCfg(), dataCfg: defaultDataCfg(),
			reqs: loadMix(48), array: 32},
		{name: "store_mix", cfg: Config{NumActive: 8},
			spec: storeSpec(), tagCfg: defaultTagCfg(), dataCfg: defaultDataCfg(),
			reqs: storeMix(40), array: 16},
		{name: "alloc_conflict_single_way", cfg: Config{NumActive: 4},
			spec: arrayWalkSpec(), tagCfg: metatag.Config{Sets: 1, Ways: 1, KeyWords: 1},
			dataCfg: defaultDataCfg(), reqs: loadMix(24), array: 32},
		{name: "tight_data_ram_makeroom", cfg: Config{NumActive: 4},
			spec: arrayWalkSpec(), tagCfg: metatag.Config{Sets: 4, Ways: 2, KeyWords: 1},
			dataCfg: dataram.Config{Sectors: 4, WordsPerSector: 4},
			reqs:    loadMix(32), array: 32},
		{name: "thread_mode", cfg: Config{Mode: ModeThread, NumActive: 8, NumExe: 2},
			spec: arrayWalkSpec(), tagCfg: defaultTagCfg(), dataCfg: defaultDataCfg(),
			reqs: loadMix(32), array: 32},
		{name: "hardwired", cfg: Config{Hardwired: true},
			spec: arrayWalkSpec(), tagCfg: defaultTagCfg(), dataCfg: defaultDataCfg(),
			reqs: loadMix(24), array: 32},
		{name: "single_slot_backend", cfg: Config{NumActive: 4, NumExe: 1},
			spec: arrayWalkSpec(), tagCfg: defaultTagCfg(), dataCfg: defaultDataCfg(),
			reqs: loadMix(24), array: 32},
		{name: "multifill_block_hits", cfg: Config{NumActive: 4},
			spec: multiFillSpec(), tagCfg: defaultTagCfg(), dataCfg: defaultDataCfg(),
			reqs: loadMix(20), array: 0},
		// 16-word elements: every response payload is lent.
		{name: "multifill_lent_payloads", cfg: Config{NumActive: 4},
			spec: multiFillSpec(), tagCfg: defaultTagCfg(), dataCfg: dataram.Config{Sectors: 64, WordsPerSector: 8},
			reqs: loadMix(20), array: 0},
		{name: "runaway_trap", cfg: Config{MaxRoutineSteps: 64},
			spec: loopSpec(), tagCfg: defaultTagCfg(), dataCfg: defaultDataCfg(),
			reqs: []diffReq{{at: 0, op: MetaLoad, key: 1}, {at: 40, op: MetaLoad, key: 2}}, array: 8,
			traps: true},
		// The runaway budget counts issued actions, not stall retries:
		// enqfilli waits 200 cycles on a clogged MemReq, far past the
		// 64-step budget, in a routine of 8 actions.
		{name: "stalled_fill_within_budget", cfg: Config{NumActive: 4, MaxRoutineSteps: 64},
			spec: fillFirstSpec(), tagCfg: defaultTagCfg(), dataCfg: defaultDataCfg(),
			reqs: []diffReq{{at: 0, op: MetaLoad, key: 1}, {at: 1, op: MetaLoad, key: 2}}, array: 8,
			clogMem: 200},
		{name: "trap_with_fills_outstanding", cfg: Config{NumActive: 4, NumExe: 1},
			spec: trapFillsSpec(), tagCfg: defaultTagCfg(), dataCfg: defaultDataCfg(),
			reqs: []diffReq{{at: 0, op: MetaLoad, key: 1}, {at: 1, op: MetaLoad, key: 9},
				{at: 2, op: MetaLoad, key: 17}, {at: 300, op: MetaLoad, key: 4}}, array: 32,
			traps: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := newDiffPair(t, c.cfg, c.spec, c.tagCfg, c.dataCfg)
			if c.array > 0 {
				p.ri.fillArray(c.array)
				p.rf.fillArray(c.array)
			} else {
				for _, r := range []*rig{p.ri, p.rf} {
					base := r.img.AllocWords(8 * 24)
					for i := 0; i < 8*24; i++ {
						r.img.W64(base+uint64(i)*8, uint64(1000+i))
					}
					r.c.SetEnv(0, base)
				}
			}
			for _, r := range []*rig{p.ri, p.rf} {
				if until, k := c.clogMem, r.k; until > 0 {
					r.c.MemReq.SetClog(func() bool { return k.Cycle() < until })
				}
			}
			p.lockstep(t, c.reqs, 400000)
			// Lockstep passes when both rigs trap alike, so the verdict
			// itself is checked too.
			for _, r := range []*rig{p.ri, p.rf} {
				if tr := r.c.Trap(); (tr != nil) != c.traps {
					t.Fatalf("trap %v, want a trap: %t", tr, c.traps)
				}
			}
			if st := p.ri.c.Stats(); c.clogMem > 0 && st.StallCycles < uint64(c.cfg.MaxRoutineSteps) {
				t.Fatalf("%d stall cycles, want the clog to outlast the %d-step budget", st.StallCycles, c.cfg.MaxRoutineSteps)
			}
		})
	}
}

// loopSpec busy-loops until the runaway budget trips — the one
// dynamically-reachable trap both executors keep (the step counter lives
// in the shared preamble).
func loopSpec() program.Spec {
	return program.Spec{
		Name:   "looper",
		States: []string{"Spin"},
		Transitions: []program.Transition{
			{State: "Default", Event: "MetaLoad", Asm: `
				li r4, 1
			spin:
				bnz r4, spin
				abort
			`},
		},
	}
}

// fillFirstSpec is arrayWalkSpec with the fill issued before allocm,
// so a clogged MemReq stalls the routine at its enqfilli.
func fillFirstSpec() program.Spec {
	s := arrayWalkSpec()
	s.Name = "fillfirst"
	s.Transitions[0].Asm = `
		lde r4, e1
		bge r1, r4, nf
		lde r4, e0
		shl r5, r1, 3
		add r5, r4, r5
		enqfilli r5, 1
		allocm
		state WaitFill
	nf:
		li r6, 0
		enqresp r6, NOTFOUND
		abort
	`
	return s
}

// trapFillsSpec issues three fills and traps on the first fill's wake
// (peek past its one data word), after raising an internal event that
// reaches the still-running walker's pending list: the trap quiesces a
// walker holding a pending message and fills still outstanding. An
// allocr-marked register keeps the walker's live set across the yield.
func trapFillsSpec() program.Spec {
	return program.Spec{
		Name:   "trapfills",
		States: []string{"W"},
		Events: []string{"Kick"},
		Transitions: []program.Transition{
			{State: "Default", Event: "MetaLoad", Asm: `
				allocr r10
				lde r4, e0
				shl r5, r1, 3
				add r10, r4, r5
				enqfilli r10, 1
				addi r5, r10, 8
				enqfilli r5, 1
				addi r5, r10, 512
				enqfilli r5, 1
				state W
			`},
			{State: "W", Event: "Fill", Asm: `
				enqev Kick
				mov r6, r10
				inc r6
				inc r6
				inc r6
				peek r7, 5
				enqresp r7, OK
				halt Valid
			`},
		},
	}
}

// TestExecDiffFaultRecovery runs the lockstep pair against a DRAM channel
// that drops the first fill response, exercising the timeout/retry and
// spurious-duplicate machinery on both executors.
func TestExecDiffFaultRecovery(t *testing.T) {
	cfg := Config{NumActive: 4, NumExe: 1, FillTimeout: 200}
	p := newDiffPair(t, cfg, arrayWalkSpec(), defaultTagCfg(), defaultDataCfg())
	baseI := p.ri.fillArray(8)
	baseF := p.rf.fillArray(8)
	if baseI != baseF {
		t.Fatalf("memory layouts diverged before the run: %#x vs %#x", baseI, baseF)
	}
	p.ri.d.Faults = &dropOnce{addrs: map[uint64]bool{baseI + 3*8: true}}
	p.rf.d.Faults = &dropOnce{addrs: map[uint64]bool{baseF + 3*8: true}}
	p.lockstep(t, []diffReq{
		{at: 0, op: MetaLoad, key: 3},
		{at: 2, op: MetaLoad, key: 5},
		{at: 400, op: MetaLoad, key: 3},
	}, 100000)
	if p.ri.c.Stats().FillRetries == 0 {
		t.Fatal("fault schedule never tripped the fill retry path")
	}
}
