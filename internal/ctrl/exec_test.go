package ctrl

import (
	"fmt"
	"testing"

	"xcache/internal/dataram"
	"xcache/internal/metatag"
	"xcache/internal/program"
)

// aluSpec builds a one-routine program that computes with the spawn
// registers (r0 = payload, r1 = key) and responds with r9.
func aluSpec(body string) program.Spec {
	return program.Spec{
		Name: "alu",
		Transitions: []program.Transition{
			{State: "Default", Event: "MetaLoad", Asm: body + "\nenqresp r9, OK\nabort"},
		},
	}
}

// evalALU runs one request through the given routine body and returns the
// responded value.
func evalALU(t *testing.T, body string, key, payload uint64, env map[int]uint64) uint64 {
	t.Helper()
	r := newRig(t, Config{}, aluSpec(body), defaultTagCfg(), defaultDataCfg())
	for i, v := range env {
		r.c.SetEnv(i, v)
	}
	id := r.issue(MetaLoad, key, payload)
	resp := r.await(1)[id]
	if resp.Status != program.StatusOK {
		t.Fatalf("status %d", resp.Status)
	}
	return resp.Value
}

// TestActionSemantics exercises every AGEN/control action through real
// microcode execution, one golden case per op.
func TestActionSemantics(t *testing.T) {
	cases := []struct {
		name string
		body string
		key  uint64
		pay  uint64
		env  map[int]uint64
		want uint64
	}{
		{"add", "add r9, r1, r0", 7, 5, nil, 12},
		{"addi_neg", "addi r9, r1, -3", 10, 0, nil, 7},
		{"and", "and r9, r1, r0", 0b1100, 0b1010, nil, 0b1000},
		{"or", "or r9, r1, r0", 0b1100, 0b1010, nil, 0b1110},
		{"xor", "xor r9, r1, r0", 0b1100, 0b1010, nil, 0b0110},
		{"not", "not r9, r1", 0, 0, nil, ^uint64(0)},
		{"inc", "mov r9, r1\ninc r9", 41, 0, nil, 42},
		{"dec", "mov r9, r1\ndec r9", 43, 0, nil, 42},
		{"shl", "shl r9, r1, 4", 3, 0, nil, 48},
		{"shr", "shr r9, r1, 2", 20, 0, nil, 5},
		{"srl", "srl r9, r1, 2", 20, 0, nil, 5},
		{"sra_sign", "not r9, r0\nsra r9, r9, 8", 0, 0, nil, ^uint64(0)},
		{"mul", "mul r9, r1, r0", 6, 7, nil, 42},
		{"li", "li r9, 1234", 0, 0, nil, 1234},
		{"mov", "mov r9, r0", 0, 99, nil, 99},
		{"lde", "lde r9, e3", 0, 0, map[int]uint64{3: 777}, 777},
		{"beq_taken", "li r9, 1\nbeq r1, r0, done\nli r9, 2\ndone:", 5, 5, nil, 1},
		{"beq_nottaken", "li r9, 1\nbeq r1, r0, done\nli r9, 2\ndone:", 5, 6, nil, 2},
		{"bnz_loop", `
			mov r5, r1
			li r9, 0
		top:
			addi r9, r9, 10
			dec r5
			bnz r5, top`, 4, 0, nil, 40},
		{"blt", "li r9, 1\nblt r1, r0, d\nli r9, 0\nd:", 3, 9, nil, 1},
		{"bge", "li r9, 1\nbge r1, r0, d\nli r9, 0\nd:", 9, 3, nil, 1},
		{"ble", "li r9, 1\nble r1, r0, d\nli r9, 0\nd:", 3, 3, nil, 1},
		{"jmp", "li r9, 1\njmp d\nli r9, 0\nd:", 0, 0, nil, 1},
		{"bmiss_on_miss_path", "li r9, 0\nbmiss d\nli r9, 1\nd:", 1, 0, nil, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := evalALU(t, c.body, c.key, c.pay, c.env); got != c.want {
				t.Fatalf("got %d want %d", got, c.want)
			}
		})
	}
}

func TestBhitAfterAllocSettles(t *testing.T) {
	// A walker whose entry is still transient sees bhit not-taken.
	spec := program.Spec{
		Name: "bhit",
		Transitions: []program.Transition{
			{State: "Default", Event: "MetaLoad", Asm: `
				allocm
				li r9, 0
				bhit d
				li r9, 1      ; transient: falls through here
			d:
				enqresp r9, OK
				abort`},
		},
	}
	r := newRig(t, Config{}, spec, defaultTagCfg(), defaultDataCfg())
	id := r.issue(MetaLoad, 5, 0)
	if got := r.await(1)[id].Value; got != 1 {
		t.Fatalf("bhit on transient entry taken (got %d)", got)
	}
}

func TestEnqWbWritesDRAM(t *testing.T) {
	// The walker stores two words in the data RAM, writes them back to a
	// DSA-chosen address, and the image must contain them afterwards.
	spec := program.Spec{
		Name: "wb",
		Transitions: []program.Transition{
			{State: "Default", Event: "MetaLoad", Asm: `
				allocm
				allocdi r7, 1
				li r5, 111
				writed r7, r5
				mov r6, r7
				inc r6
				li r5, 222
				writed r6, r5
				lde r4, e2        ; writeback target address
				enqwb r4, r7, 2
				li r8, 1
				update r7, r8
				enqresp r5, OK
				halt Valid`},
		},
	}
	r := newRig(t, Config{}, spec, defaultTagCfg(), defaultDataCfg())
	dst := r.img.AllocWords(2)
	r.c.SetEnv(2, dst)
	id := r.issue(MetaLoad, 9, 0)
	r.await(1)
	_ = id
	if !r.k.RunUntil(func() bool { return r.d.Idle() }, 10000) {
		t.Fatal("writeback never drained")
	}
	if r.img.R64(dst) != 111 || r.img.R64(dst+8) != 222 {
		t.Fatalf("writeback contents: %d %d", r.img.R64(dst), r.img.R64(dst+8))
	}
	if r.c.Stats().WritebacksIssued != 1 {
		t.Fatalf("writebacks %d", r.c.Stats().WritebacksIssued)
	}
}

func TestDeallocMFreesEntryAndSectors(t *testing.T) {
	spec := program.Spec{
		Name: "dealloc",
		Transitions: []program.Transition{
			{State: "Default", Event: "MetaLoad", Asm: `
				allocm
				allocdi r7, 2
				li r8, 2
				update r7, r8
				deallocm           ; frees entry AND its sectors
				li r9, 7
				enqresp r9, OK
				abort`},
		},
	}
	r := newRig(t, Config{}, spec, defaultTagCfg(), defaultDataCfg())
	id := r.issue(MetaLoad, 3, 0)
	r.await(1)
	_ = id
	if r.c.Tags.Live() != 0 {
		t.Fatal("deallocm left a live entry")
	}
	if r.c.Data.FreeSectors() != defaultDataCfg().Sectors {
		t.Fatalf("sectors leaked: %d free", r.c.Data.FreeSectors())
	}
}

func TestPeekSpecialIndices(t *testing.T) {
	// peek -1 = message address, -2 = word count.
	spec := program.Spec{
		Name:   "peekspecial",
		States: []string{"W"},
		Transitions: []program.Transition{
			{State: "Default", Event: "MetaLoad", Asm: `
				allocm
				lde r4, e0
				enqfilli r4, 3
				state W`},
			{State: "W", Event: "Fill", Asm: `
				peek r5, -1        ; address
				peek r6, -2        ; word count
				add r9, r5, r6
				enqresp r9, OK
				abort`},
		},
	}
	r := newRig(t, Config{}, spec, defaultTagCfg(), defaultDataCfg())
	base := r.img.AllocWords(4)
	r.c.SetEnv(0, base)
	id := r.issue(MetaLoad, 1, 0)
	if got, want := r.await(1)[id].Value, base+3; got != want {
		t.Fatalf("peek specials: got %d want %d", got, want)
	}
}

func TestRunawayMicrocodeTraps(t *testing.T) {
	// An infinite microcode loop must not panic (PR 5): the walker traps
	// with runaway-routine, the origin still gets a NotFound response, and
	// the controller drains back to idle.
	spec := program.Spec{
		Name: "runaway",
		Transitions: []program.Transition{
			{State: "Default", Event: "MetaLoad", Asm: "top: inc r5\njmp top\nhalt Valid"},
		},
	}
	r := newRig(t, Config{MaxRoutineSteps: 64}, spec, defaultTagCfg(), defaultDataCfg())
	id := r.issue(MetaLoad, 1, 0)
	resp := r.await(1)[id]
	if resp.Status != program.StatusNotFound {
		t.Fatalf("trapped walker answered %+v, want NOTFOUND", resp)
	}
	tr := r.c.Trap()
	if tr == nil || tr.Kind != TrapRunawayRoutine {
		t.Fatalf("trap = %v, want runaway-routine", tr)
	}
	if tr.Program != "runaway" || tr.Cycle == 0 {
		t.Fatalf("trap context incomplete: %+v", tr)
	}
	if got := r.c.Stats().Traps; got != 1 {
		t.Fatalf("trap count %d, want 1", got)
	}
	r.k.Run(100)
	if !r.c.Idle() {
		t.Fatal("controller wedged after trap")
	}
}

func TestWaiterBackpressure(t *testing.T) {
	r := newRig(t, Config{MaxWaiters: 1}, arrayWalkSpec(), defaultTagCfg(), defaultDataCfg())
	r.fillArray(16)
	ids := []uint64{r.issue(MetaLoad, 4, 0), r.issue(MetaLoad, 4, 0), r.issue(MetaLoad, 4, 0)}
	got := r.await(3)
	for _, id := range ids {
		if got[id].Value != 47 {
			t.Fatalf("id %d: %+v", id, got[id])
		}
	}
	if r.c.Stats().FillsIssued != 1 {
		t.Fatalf("fills %d; same-key requests must not refetch", r.c.Stats().FillsIssued)
	}
}

func TestRespDataWordsCap(t *testing.T) {
	r := newRig(t, Config{RespDataWords: 2}, multiFillSpec(), defaultTagCfg(), defaultDataCfg())
	base := r.img.AllocWords(8 * 8)
	for i := 0; i < 64; i++ {
		r.img.W64(base+uint64(i)*8, uint64(i))
	}
	r.c.SetEnv(0, base)
	r.issue(MetaLoad, 1, 0)
	r.await(1)
	id := r.issue(MetaLoad, 1, 0) // hit: full 8 words, snapshot capped at 2
	resp := r.await(1)[id]
	if resp.Words != 8 {
		t.Fatalf("words %d", resp.Words)
	}
	if resp.Data.Len() != 2 {
		t.Fatalf("snapshot %d words, want cap 2", resp.Data.Len())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, Stats) {
		r := newRig(t, Config{NumActive: 4}, arrayWalkSpec(), defaultTagCfg(), defaultDataCfg())
		r.fillArray(64)
		for i := 0; i < 40; i++ {
			r.issue(MetaLoad, uint64((i*13)%50), 0)
		}
		r.await(40)
		return uint64(r.k.Cycle()), r.c.Stats()
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 {
		t.Fatalf("non-deterministic cycles: %d vs %d", c1, c2)
	}
	if s1 != s2 {
		t.Fatalf("non-deterministic stats:\n%+v\n%+v", s1, s2)
	}
}

func TestThreadModeSerializesOnPipelines(t *testing.T) {
	// One pipeline (#Exe=1) in thread mode: walks are fully serial.
	r := newRig(t, Config{Mode: ModeThread, NumExe: 1, NumActive: 8},
		arrayWalkSpec(), defaultTagCfg(), defaultDataCfg())
	r.fillArray(32)
	for i := 0; i < 8; i++ {
		r.issue(MetaLoad, uint64(i), 0)
	}
	r.await(8)
	if r.c.Stats().MaxFillsInFlight != 1 {
		t.Fatalf("thread mode with one pipeline overlapped fills: %d", r.c.Stats().MaxFillsInFlight)
	}
}

func TestCustomInternalEvent(t *testing.T) {
	// A walker that defers its work through enqev: spawn → raise Kick →
	// the Kick routine responds.
	spec := program.Spec{
		Name:   "kick",
		States: []string{"Waiting"},
		Events: []string{"Kick"},
		Transitions: []program.Transition{
			{State: "Default", Event: "MetaLoad", Asm: `
				allocr r1
				allocm
				enqev Kick
				state Waiting`},
			{State: "Waiting", Event: "Kick", Asm: `
				shl r9, r1, 1
				enqresp r9, OK
				abort`},
		},
	}
	r := newRig(t, Config{}, spec, defaultTagCfg(), defaultDataCfg())
	id := r.issue(MetaLoad, 21, 0)
	if got := r.await(1)[id].Value; got != 42 {
		t.Fatalf("custom event path: got %d", got)
	}
}

func TestAbortFreesAllocatedSectors(t *testing.T) {
	spec := program.Spec{
		Name: "abortfree",
		Transitions: []program.Transition{
			{State: "Default", Event: "MetaLoad", Asm: `
				allocm
				allocdi r7, 3
				li r8, 3
				update r7, r8
				li r9, 0
				enqresp r9, NOTFOUND
				abort`},
		},
	}
	r := newRig(t, Config{}, spec, defaultTagCfg(), defaultDataCfg())
	for i := 0; i < 10; i++ {
		r.issue(MetaLoad, uint64(i), 0)
		r.await(1)
	}
	if r.c.Data.FreeSectors() != defaultDataCfg().Sectors {
		t.Fatalf("abort leaked sectors: %d free of %d",
			r.c.Data.FreeSectors(), defaultDataCfg().Sectors)
	}
	if r.c.Tags.Live() != 0 {
		t.Fatal("abort leaked entries")
	}
}

func TestPlainStoreOverwritesOnHit(t *testing.T) {
	r := newRig(t, Config{}, storeSpec(), defaultTagCfg(), defaultDataCfg())
	r.fillArray(8)
	r.issue(MetaStore, 2, 50)
	r.await(1)
	r.issue(MetaStore, 2, 60) // hit: plain store overwrites
	r.await(1)
	id := r.issue(MetaLoad, 2, 0)
	if got := r.await(1)[id].Value; got != 60 {
		t.Fatalf("store-overwrite: got %d want 60", got)
	}
}

func TestStoreMergeMinKeepsMinimum(t *testing.T) {
	r := newRig(t, Config{}, storeSpec(), defaultTagCfg(), defaultDataCfg())
	r.fillArray(8)
	r.issue(MetaStoreMergeMin, 4, 9)
	r.await(1)
	r.issue(MetaStoreMergeMin, 4, 3) // smaller: kept
	r.await(1)
	r.issue(MetaStoreMergeMin, 4, 7) // larger: ignored
	r.await(1)
	id := r.issue(MetaLoad, 4, 0)
	if got := r.await(1)[id].Value; got != 3 {
		t.Fatalf("min-merge kept %d, want 3", got)
	}
	if r.c.Stats().FillsIssued != 0 {
		t.Fatal("min-merge touched DRAM")
	}
}

func TestManyKeysStress(t *testing.T) {
	// Churn far beyond capacity; every response must still be correct.
	r := newRig(t, Config{NumActive: 16, NumExe: 4}, arrayWalkSpec(),
		metatag.Config{Sets: 4, Ways: 2, KeyWords: 1},
		dataram.Config{Sectors: 16, WordsPerSector: 4})
	r.fillArray(200)
	const n = 400
	issued := 0
	got := 0
	bad := 0
	if !r.k.RunUntil(func() bool {
		for issued < n {
			key := uint64((issued * 7) % 200)
			req := MetaReq{ID: uint64(issued), Op: MetaLoad, Key: metatag.Key{key, 0}, Issued: r.k.Cycle()}
			if !r.c.ReqQ.Push(req) {
				break
			}
			issued++
		}
		for {
			resp, ok := r.c.RespQ.Pop()
			if !ok {
				break
			}
			key := (resp.ID * 7) % 200
			if resp.Value != uint64(10*key+7) {
				bad++
			}
			got++
		}
		return got == n
	}, 2_000_000) {
		t.Fatalf("stress run stalled at %d/%d (stats %+v)", got, n, r.c.Stats())
	}
	if bad != 0 {
		t.Fatalf("%d wrong responses under churn", bad)
	}
	r.k.Run(100)
	if !r.c.Idle() {
		t.Fatal("controller not idle after stress")
	}
}

func TestStatsStringers(t *testing.T) {
	var s Stats
	if s.AvgLoadToUse() != 0 || s.AvgHitLoadToUse() != 0 || s.HitRate() != 0 {
		t.Fatal("zero stats must not divide by zero")
	}
	s.L2USum, s.L2UCount = 10, 2
	s.Hits, s.Misses = 3, 1
	if s.AvgLoadToUse() != 5 || s.HitRate() != 0.75 {
		t.Fatalf("stats math: %+v", s)
	}
	_ = fmt.Sprintf("%+v", s)
}
