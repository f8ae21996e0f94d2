package ctrl

import (
	"fmt"
	"strings"
	"testing"

	"xcache/internal/dataram"
	"xcache/internal/dram"
	"xcache/internal/energy"
	"xcache/internal/mem"
	"xcache/internal/metatag"
	"xcache/internal/program"
	"xcache/internal/sim"
)

// arrayWalkSpec is a minimal real walker: the meta-tag is an array index,
// the walk loads array[key] from DRAM (env e0 = array base) and caches the
// single word. Keys >= e1 (the array bound) are not-found.
func arrayWalkSpec() program.Spec {
	return program.Spec{
		Name:   "arraywalk",
		States: []string{"WaitFill"},
		Transitions: []program.Transition{
			{State: "Default", Event: "MetaLoad", Asm: `
				lde r4, e1
				bge r1, r4, nf
				allocm
				lde r4, e0
				shl r5, r1, 3
				add r5, r4, r5
				enqfilli r5, 1
				state WaitFill
			nf:
				li r6, 0
				enqresp r6, NOTFOUND
				abort
			`},
			{State: "WaitFill", Event: "Fill", Asm: `
				peek r6, 0
				allocdi r7, 1
				writed r7, r6
				li r8, 1
				update r7, r8
				enqresp r6, OK
				halt Valid
			`},
		},
	}
}

// storeSpec handles MetaStore misses by allocating an entry and storing
// the payload (the GraphPulse insert path).
func storeSpec() program.Spec {
	s := arrayWalkSpec()
	s.Transitions = append(s.Transitions, program.Transition{
		State: "Default", Event: "MetaStore", Asm: `
			allocm
			allocdi r7, 1
			writed r7, r0
			li r8, 1
			update r7, r8
			enqresp r0, OK
			halt Valid
		`,
	})
	return s
}

type rig struct {
	t     *testing.T
	k     *sim.Kernel
	img   *mem.Image
	d     *dram.DRAM
	c     *Controller
	meter *energy.Counters
	next  uint64
}

func newRig(t *testing.T, cfg Config, spec program.Spec, tagCfg metatag.Config, dataCfg dataram.Config) *rig {
	t.Helper()
	prog, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	img := mem.NewImage()
	d := dram.New(k, dram.DefaultConfig(), img)
	meter := &energy.Counters{}
	tags := metatag.New(tagCfg, meter)
	data := dataram.New(dataCfg, meter)
	c, err := New(k, cfg, prog, tags, data, d.Req, d.Resp, meter)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{t: t, k: k, img: img, d: d, c: c, meter: meter}
}

// fillArray lays out array[i] = 10*i+7 and points e0/e1 at it.
func (r *rig) fillArray(n int) uint64 {
	base := r.img.AllocWords(n)
	for i := 0; i < n; i++ {
		r.img.W64(base+uint64(i)*8, uint64(10*i+7))
	}
	r.c.SetEnv(0, base)
	r.c.SetEnv(1, uint64(n))
	return base
}

func (r *rig) issue(op MetaOp, key, payload uint64) uint64 {
	r.next++
	id := r.next
	req := MetaReq{ID: id, Op: op, Key: metatag.Key{key, 0}, Payload: payload, Issued: r.k.Cycle()}
	if !r.k.RunUntil(func() bool { return r.c.ReqQ.Push(req) }, 10000) {
		r.t.Fatal("request queue never drained")
	}
	return id
}

func (r *rig) await(n int) map[uint64]MetaResp {
	got := map[uint64]MetaResp{}
	if !r.k.RunUntil(func() bool {
		for {
			resp, ok := r.c.RespQ.Pop()
			if !ok {
				break
			}
			got[resp.ID] = resp
		}
		return len(got) >= n
	}, 200000) {
		r.t.Fatalf("timed out: %d/%d responses (ctrl stats %+v)", len(got), n, r.c.Stats())
	}
	return got
}

func defaultTagCfg() metatag.Config {
	return metatag.Config{Sets: 16, Ways: 4, KeyWords: 1}
}

func defaultDataCfg() dataram.Config {
	return dataram.Config{Sectors: 64, WordsPerSector: 4}
}

func TestMissWalkThenHit(t *testing.T) {
	r := newRig(t, Config{}, arrayWalkSpec(), defaultTagCfg(), defaultDataCfg())
	r.fillArray(32)

	id := r.issue(MetaLoad, 5, 0)
	resp := r.await(1)[id]
	if resp.Status != program.StatusOK || resp.Value != 57 {
		t.Fatalf("miss response: %+v", resp)
	}
	st := r.c.Stats()
	if st.Misses != 1 || st.Hits != 0 || st.FillsIssued != 1 {
		t.Fatalf("after miss: %+v", st)
	}
	missLat := st.L2USum

	id2 := r.issue(MetaLoad, 5, 0)
	resp2 := r.await(1)[id2]
	if resp2.Status != program.StatusOK || resp2.Value != 57 {
		t.Fatalf("hit response: %+v", resp2)
	}
	st = r.c.Stats()
	if st.Hits != 1 || st.FillsIssued != 1 {
		t.Fatalf("after hit: %+v", st)
	}
	hitLat := st.L2USum - missLat
	if hitLat >= missLat {
		t.Fatalf("hit latency %d not faster than miss %d", hitLat, missLat)
	}
	// Dedicated hit port: ~HitLatency plus queue registration.
	if hitLat > uint64(r.c.Cfg.HitLatency)+4 {
		t.Fatalf("hit load-to-use %d too slow", hitLat)
	}
}

func TestNotFound(t *testing.T) {
	r := newRig(t, Config{}, arrayWalkSpec(), defaultTagCfg(), defaultDataCfg())
	r.fillArray(8)
	id := r.issue(MetaLoad, 100, 0)
	resp := r.await(1)[id]
	if resp.Status != program.StatusNotFound {
		t.Fatalf("resp: %+v", resp)
	}
	if r.c.Tags.Live() != 0 {
		t.Fatalf("not-found left %d live entries", r.c.Tags.Live())
	}
	if r.c.Stats().NotFound != 1 {
		t.Fatalf("stats: %+v", r.c.Stats())
	}
}

func TestWaiterMergingSharesOneWalk(t *testing.T) {
	r := newRig(t, Config{}, arrayWalkSpec(), defaultTagCfg(), defaultDataCfg())
	r.fillArray(32)
	idA := r.issue(MetaLoad, 9, 0)
	idB := r.issue(MetaLoad, 9, 0) // should merge behind A's walker
	got := r.await(2)
	if got[idA].Value != 97 || got[idB].Value != 97 {
		t.Fatalf("responses: %+v", got)
	}
	st := r.c.Stats()
	if st.FillsIssued != 1 {
		t.Fatalf("merged access refetched: fills=%d", st.FillsIssued)
	}
	if st.MergedWaiters != 1 {
		t.Fatalf("merged waiters=%d", st.MergedWaiters)
	}
}

func TestParallelWalkersOverlapFills(t *testing.T) {
	r := newRig(t, Config{NumActive: 8}, arrayWalkSpec(), defaultTagCfg(), defaultDataCfg())
	r.fillArray(64)
	ids := make([]uint64, 8)
	for i := range ids {
		ids[i] = r.issue(MetaLoad, uint64(i*7%32), 0)
	}
	got := r.await(8)
	for i, id := range ids {
		want := uint64(10*(i*7%32) + 7)
		if got[id].Value != want {
			t.Fatalf("key %d: got %d want %d", i*7%32, got[id].Value, want)
		}
	}
	if r.c.Stats().MaxFillsInFlight < 2 {
		t.Fatalf("no memory-level parallelism: max fills in flight %d", r.c.Stats().MaxFillsInFlight)
	}
}

func TestEvictionAndRefetch(t *testing.T) {
	tagCfg := metatag.Config{Sets: 1, Ways: 2, KeyWords: 1}
	r := newRig(t, Config{}, arrayWalkSpec(), tagCfg, defaultDataCfg())
	r.fillArray(16)
	for _, k := range []uint64{1, 2, 3} { // 3 keys, 2 ways: key 1 evicted
		id := r.issue(MetaLoad, k, 0)
		r.await(1)
		_ = id
	}
	if live := r.c.Tags.Live(); live != 2 {
		t.Fatalf("live entries %d, want 2", live)
	}
	fillsBefore := r.c.Stats().FillsIssued
	id := r.issue(MetaLoad, 1, 0)
	resp := r.await(1)[id]
	if resp.Value != 17 {
		t.Fatalf("refetched value %d", resp.Value)
	}
	if r.c.Stats().FillsIssued != fillsBefore+1 {
		t.Fatal("evicted key did not re-walk")
	}
	// Sector conservation: 2 live single-sector entries.
	if free := r.c.Data.FreeSectors(); free != defaultDataCfg().Sectors-2 {
		t.Fatalf("free sectors %d", free)
	}
}

func TestStoreMergeCoalesces(t *testing.T) {
	r := newRig(t, Config{}, storeSpec(), defaultTagCfg(), defaultDataCfg())
	r.fillArray(8)
	idA := r.issue(MetaStoreMerge, 3, 5)
	r.await(1)
	_ = idA
	idB := r.issue(MetaStoreMerge, 3, 11) // hit-path merge
	r.await(1)
	_ = idB
	idC := r.issue(MetaLoad, 3, 0)
	resp := r.await(1)[idC]
	if resp.Value != 16 {
		t.Fatalf("merged value %d, want 16", resp.Value)
	}
	st := r.c.Stats()
	if st.FillsIssued != 0 {
		t.Fatalf("store-merge touched DRAM: %+v", st)
	}
	e := r.c.Tags.Lookup(metatag.Key{3, 0})
	if e == nil || !e.Dirty {
		t.Fatal("merged entry not marked dirty")
	}
}

func TestAllocConflictReplays(t *testing.T) {
	// One set, one way: the second key's allocm must fail while the first
	// walker is transient, then replay to completion.
	tagCfg := metatag.Config{Sets: 1, Ways: 1, KeyWords: 1}
	r := newRig(t, Config{NumActive: 4}, arrayWalkSpec(), tagCfg, defaultDataCfg())
	r.fillArray(16)
	idA := r.issue(MetaLoad, 1, 0)
	idB := r.issue(MetaLoad, 2, 0)
	got := r.await(2)
	if got[idA].Value != 17 || got[idB].Value != 27 {
		t.Fatalf("responses: %+v", got)
	}
	if r.c.Stats().AllocRetries == 0 {
		t.Fatal("expected an allocm retry with 1-way tags")
	}
}

// TestTraceClassesMatchStats pins the reference trace to the
// controller's own accounting on both executors: each TraceReq classed
// ClassHit is one Stats.Hits, each ClassMiss one Stats.Misses, each
// ClassMerge one MergedWaiters and each TraceAllocRetry one AllocRetries.
// One-way tags force allocation conflicts, whose replayed requests are
// classified, and counted, a second time.
func TestTraceClassesMatchStats(t *testing.T) {
	for _, exec := range []ExecPath{ExecFast, ExecInterp} {
		tagCfg := metatag.Config{Sets: 1, Ways: 1, KeyWords: 1}
		r := newRig(t, Config{NumActive: 4, Exec: exec}, arrayWalkSpec(), tagCfg, defaultDataCfg())
		r.fillArray(16)
		log := &traceLog{}
		r.c.SetTraceSink(log)
		r.issue(MetaLoad, 5, 0)
		r.await(1)
		r.issue(MetaLoad, 5, 0) // still resident: a hit
		r.await(1)
		r.issue(MetaLoad, 7, 0)
		r.k.Run(20)
		r.issue(MetaLoad, 7, 0) // merges behind the allocated, filling entry
		r.await(2)
		for _, key := range []uint64{1, 1, 2, 2, 3} { // merges and way conflicts
			r.issue(MetaLoad, key, 0)
		}
		r.await(5)
		st := r.c.Stats()
		if st.Hits == 0 || st.Misses == 0 || st.MergedWaiters == 0 || st.AllocRetries == 0 {
			t.Fatalf("executor %d: schedule left a request class unexercised: %+v", exec, st)
		}
		checkTraceClasses(t, fmt.Sprintf("executor %d", exec), log.evs, st)
		var merges, retries uint64
		for _, ev := range log.evs {
			switch {
			case ev.Kind == TraceReq && ev.Class == ClassMerge:
				merges++
			case ev.Kind == TraceAllocRetry:
				retries++
			}
		}
		if merges != st.MergedWaiters || retries != st.AllocRetries {
			t.Fatalf("executor %d: trace has %d merges and %d alloc retries, Stats counts %d and %d",
				exec, merges, retries, st.MergedWaiters, st.AllocRetries)
		}
	}
}

func TestHardwiredModeSameResultsNoMicrocodeEnergy(t *testing.T) {
	run := func(hardwired bool) (uint64, uint64, sim.Cycle) {
		r := newRig(t, Config{Hardwired: hardwired}, arrayWalkSpec(), defaultTagCfg(), defaultDataCfg())
		r.fillArray(32)
		var sum uint64
		for i := 0; i < 16; i++ {
			id := r.issue(MetaLoad, uint64(i%8), 0)
			sum += r.await(1)[id].Value
		}
		return sum, r.meter.RtnBytes, r.k.Cycle()
	}
	sumP, rtnP, cycP := run(false)
	sumH, rtnH, cycH := run(true)
	if sumP != sumH {
		t.Fatalf("functional divergence: %d vs %d", sumP, sumH)
	}
	if rtnH != 0 || rtnP == 0 {
		t.Fatalf("routine RAM bytes: programmable=%d hardwired=%d", rtnP, rtnH)
	}
	if cycH > cycP {
		t.Fatalf("hardwired (%d cyc) slower than programmable (%d cyc)", cycH, cycP)
	}
}

func TestThreadModeOccupancyExceedsCoroutine(t *testing.T) {
	run := func(mode ExecMode) (occ uint64, cycles sim.Cycle) {
		r := newRig(t, Config{Mode: mode, NumActive: 8, NumExe: 2},
			arrayWalkSpec(), defaultTagCfg(), defaultDataCfg())
		r.fillArray(64)
		pending := 0
		for i := 0; i < 32; i++ {
			r.issue(MetaLoad, uint64(i), 0)
			pending++
		}
		r.await(pending)
		return r.c.Stats().OccupancyByteCycles, r.k.Cycle()
	}
	occC, cycC := run(ModeCoroutine)
	occT, cycT := run(ModeThread)
	if occT < occC*20 {
		t.Fatalf("thread occupancy %d not ≫ coroutine %d", occT, occC)
	}
	if cycT < cycC {
		t.Fatalf("thread mode (%d cyc) should not beat coroutines (%d cyc)", cycT, cycC)
	}
}

func TestControllerIdleAfterDrain(t *testing.T) {
	r := newRig(t, Config{}, arrayWalkSpec(), defaultTagCfg(), defaultDataCfg())
	r.fillArray(32)
	for i := 0; i < 8; i++ {
		r.issue(MetaLoad, uint64(i), 0)
	}
	r.await(8)
	r.k.Run(200) // let stragglers settle
	if !r.c.Idle() {
		t.Fatal("controller not idle after draining all work")
	}
	if !r.d.Idle() {
		t.Fatal("dram not idle")
	}
}

// multiFillSpec caches an 8-word element (2 sectors × 4 words) fetched
// with two 4-word fills, placing each arriving block by its address —
// the SpArch row-refill pattern.
func multiFillSpec() program.Spec {
	return program.Spec{
		Name:   "multifill",
		States: []string{"Filling"},
		Transitions: []program.Transition{
			{State: "Default", Event: "MetaLoad", Asm: `
				allocm
				lde r4, e0
				shl r5, r1, 6      ; key * 64 bytes
				add r5, r4, r5
				allocr r14         ; survives yields: element base address
				allocr r7          ; survives yields: data-RAM base
				allocr r10         ; survives yields: fills outstanding
				mov r14, r5
				allocdi r7, 2
				li r8, 2
				update r7, r8
				li r10, 2
				enqfilli r5, 4
				addi r5, r5, 32
				enqfilli r5, 4
				state Filling
			`},
			{State: "Filling", Event: "Fill", Asm: `
				peek r11, -1       ; block address
				not r13, r14
				inc r13
				add r13, r13, r11  ; addr - base
				shr r13, r13, 3
				add r13, r13, r7   ; destination word index
				peek r12, 0
				writed r13, r12
				inc r13
				peek r12, 1
				writed r13, r12
				inc r13
				peek r12, 2
				writed r13, r12
				inc r13
				peek r12, 3
				writed r13, r12
				dec r10
				bnz r10, more
				readd r6, r7
				enqresp r6, OK
				halt Valid
			more:
				state Filling
			`},
		},
	}
}

func TestMultiSectorFillAndBlockHit(t *testing.T) {
	r := newRig(t, Config{}, multiFillSpec(), defaultTagCfg(), defaultDataCfg())
	// Elements of 8 words at base + key*64.
	base := r.img.AllocWords(8 * 8)
	for i := 0; i < 64; i++ {
		r.img.W64(base+uint64(i)*8, uint64(1000+i))
	}
	r.c.SetEnv(0, base)

	id := r.issue(MetaLoad, 2, 0)
	resp := r.await(1)[id]
	if resp.Status != program.StatusOK || resp.Value != 1016 {
		t.Fatalf("miss resp: %+v", resp)
	}
	// Block hit: full 8-word element streamed back.
	id2 := r.issue(MetaLoad, 2, 0)
	resp2 := r.await(1)[id2]
	if resp2.Words != 8 || resp2.Data.Len() != 8 {
		t.Fatalf("hit words=%d data=%d", resp2.Words, resp2.Data.Len())
	}
	for i, v := range resp2.Data.Slice() {
		if v != uint64(1016+i) {
			t.Fatalf("hit data[%d]=%d want %d", i, v, 1016+i)
		}
	}
	if r.c.Stats().FillsIssued != 2 {
		t.Fatalf("fills issued %d want 2", r.c.Stats().FillsIssued)
	}
}

func TestEnergyCountersPopulated(t *testing.T) {
	r := newRig(t, Config{}, arrayWalkSpec(), defaultTagCfg(), defaultDataCfg())
	r.fillArray(32)
	for i := 0; i < 8; i++ {
		id := r.issue(MetaLoad, uint64(i%4), 0)
		r.await(1)
		_ = id
	}
	m := r.meter
	if m.TagBytes == 0 || m.DataBytes == 0 || m.RtnBytes == 0 ||
		m.RegBitsWritten == 0 || m.AddOps == 0 || m.QueueBytes == 0 {
		t.Fatalf("counters not populated: %+v", m)
	}
	b := m.Energy(energy.DefaultParams())
	if b.OnChip() <= 0 {
		t.Fatal("no on-chip energy accumulated")
	}
}

// dropOnce drops the first read response for each listed address.
type dropOnce struct{ addrs map[uint64]bool }

func (f *dropOnce) ReadResponse(r dram.Response, c sim.Cycle) (bool, int) {
	if f.addrs[r.Addr] {
		delete(f.addrs, r.Addr)
		return true, 0
	}
	return false, 0
}

func TestFillTimeoutRetriesDroppedFill(t *testing.T) {
	cfg := Config{NumActive: 4, NumExe: 1, FillTimeout: 200}
	r := newRig(t, cfg, arrayWalkSpec(), defaultTagCfg(), defaultDataCfg())
	base := r.fillArray(8)
	r.d.Faults = &dropOnce{addrs: map[uint64]bool{base + 3*8: true}}
	id := r.issue(MetaLoad, 3, 0)
	got := r.await(1)
	if got[id].Status != program.StatusOK || got[id].Value != 37 {
		t.Fatalf("resp after retry: %+v", got[id])
	}
	st := r.c.Stats()
	if st.FillRetries == 0 {
		t.Fatal("dropped fill recovered without a recorded retry")
	}
	if err := r.c.CheckInvariants(r.k.Cycle()); err != nil {
		t.Fatalf("invariants after retry: %v", err)
	}
}

// A delayed original plus a reissued retry produce a duplicate response;
// the second arrival must be discarded as spurious, not crash the walker.
func TestDuplicateFillDiscardedAsSpurious(t *testing.T) {
	cfg := Config{NumActive: 4, NumExe: 1, FillTimeout: 60}
	r := newRig(t, cfg, arrayWalkSpec(), defaultTagCfg(), defaultDataCfg())
	base := r.fillArray(8)
	// Delay the first response past the (short) timeout so the retry is
	// in flight when the original finally lands.
	delayed := false
	r.d.Faults = faultFunc(func(resp dram.Response, c sim.Cycle) (bool, int) {
		if resp.Addr == base+2*8 && !delayed {
			delayed = true
			return false, 300
		}
		return false, 0
	})
	id := r.issue(MetaLoad, 2, 0)
	got := r.await(1)
	if got[id].Status != program.StatusOK || got[id].Value != 27 {
		t.Fatalf("resp: %+v", got[id])
	}
	// Let the delayed duplicate arrive and be discarded.
	r.k.RunUntil(func() bool { return r.d.Idle() }, 10000)
	r.k.Run(5)
	st := r.c.Stats()
	if st.SpuriousFills == 0 {
		t.Fatal("duplicate response was not discarded as spurious")
	}
	if err := r.c.CheckInvariants(r.k.Cycle()); err != nil {
		t.Fatalf("invariants after duplicate: %v", err)
	}
}

type faultFunc func(r dram.Response, c sim.Cycle) (bool, int)

func (f faultFunc) ReadResponse(r dram.Response, c sim.Cycle) (bool, int) { return f(r, c) }

func TestParityScrubRefetchesCorruptedEntry(t *testing.T) {
	cfg := Config{NumActive: 4, NumExe: 1, ParityCheck: true}
	r := newRig(t, cfg, arrayWalkSpec(), defaultTagCfg(), defaultDataCfg())
	r.fillArray(8)
	id := r.issue(MetaLoad, 5, 0)
	if got := r.await(1); got[id].Value != 57 {
		t.Fatalf("first walk: %+v", got[id])
	}
	// Corrupt the settled entry's stored key, then probe the same key:
	// the frontend must scrub the bad entry and re-walk from DRAM.
	e := r.c.Tags.Probe(metatag.Key{5, 0})
	if e == nil {
		t.Fatal("entry not cached after walk")
	}
	r.c.Tags.CorruptKeyBit(e, 0, 1)
	id2 := r.issue(MetaLoad, 5, 0)
	got := r.await(1)
	if got[id2].Status != program.StatusOK || got[id2].Value != 57 {
		t.Fatalf("post-corruption walk: %+v", got[id2])
	}
	st := r.c.Stats()
	if st.ParityScrubs != 1 {
		t.Fatalf("ParityScrubs=%d, want 1", st.ParityScrubs)
	}
	if st.Hits != 0 {
		t.Fatalf("corrupted entry served %d hits", st.Hits)
	}
	if err := r.c.CheckInvariants(r.k.Cycle()); err != nil {
		t.Fatalf("invariants after scrub: %v", err)
	}
}

func TestControllerDiagnoseListsActiveWalkers(t *testing.T) {
	cfg := Config{NumActive: 4, NumExe: 1}
	r := newRig(t, cfg, arrayWalkSpec(), defaultTagCfg(), defaultDataCfg())
	r.fillArray(8)
	r.issue(MetaLoad, 1, 0)
	r.k.Run(3) // mid-walk
	if r.c.DiagnoseName() != "ctrl" {
		t.Fatalf("DiagnoseName=%q", r.c.DiagnoseName())
	}
	lines := r.c.Diagnose()
	found := false
	for _, l := range lines {
		if strings.Contains(l, "walker") && strings.Contains(l, "key=0x1") {
			found = true
		}
	}
	if !found {
		t.Fatalf("diagnose lacks the in-flight walker: %v", lines)
	}
	r.await(1)
}

func TestFaultQueuesCoverControllerBoundaries(t *testing.T) {
	cfg := Config{NumActive: 4, NumExe: 1}
	r := newRig(t, cfg, arrayWalkSpec(), defaultTagCfg(), defaultDataCfg())
	names := map[string]bool{}
	for _, q := range r.c.FaultQueues() {
		names[q.Name()] = true
	}
	for _, want := range []string{"xc.req", "xc.resp", "xc.evq"} {
		if !names[want] {
			t.Fatalf("FaultQueues misses %s: %v", want, names)
		}
	}
}
