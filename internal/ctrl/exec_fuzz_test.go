// Differential fuzzer for the two microcode executors. FuzzVerify (in
// fuzz_test.go) pins "verifier acceptance implies no structural trap";
// this harness pins the stronger property the pre-decoded path depends
// on: for ANY accepted program — not just the hand-written walkers — the
// interpreter and the fast path are observationally equivalent. Fuzzed
// bytes that parse and verify are run through twin controller stacks,
// one per executor, and every terminal observable must match: response
// stream, trap record, statistics, energy meter, storage occupancy.
package ctrl_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"xcache/internal/ctrl"
	"xcache/internal/dataram"
	"xcache/internal/dram"
	"xcache/internal/energy"
	"xcache/internal/isa"
	"xcache/internal/mem"
	"xcache/internal/metatag"
	"xcache/internal/program"
	"xcache/internal/sim"
)

// execOutcome is the observable closure of one bounded run.
type execOutcome struct {
	stats  ctrl.Stats
	meter  energy.Counters
	resps  []ctrl.MetaResp
	trap   *ctrl.Trap
	live   int
	free   int
	cycles sim.Cycle
}

// classCounter is a TraceSink that counts classified requests: every
// ClassHit must be one Stats.Hits and every ClassMiss one Stats.Misses.
type classCounter struct{ hits, misses uint64 }

func (cc *classCounter) Trace(ev ctrl.TraceEvent) {
	if ev.Kind != ctrl.TraceReq {
		return
	}
	switch ev.Class {
	case ctrl.ClassHit:
		cc.hits++
	case ctrl.ClassMiss:
		cc.misses++
	}
}

// runExecPath executes p for a bounded number of cycles on a small
// controller pinned to the given executor backend and captures the
// outcome, failing if the trace's classes disagree with its Stats. The
// stack mirrors execAccepted's exactly.
func runExecPath(t *testing.T, p *program.Program, exec ctrl.ExecPath) execOutcome {
	t.Helper()
	k := sim.NewKernel()
	img := mem.NewImage()
	d := dram.New(k, dram.DefaultConfig(), img)
	meter := &energy.Counters{}
	tags := metatag.New(metatag.Config{Sets: 2, Ways: 2, KeyWords: 1}, meter)
	data := dataram.New(dataram.Config{Sectors: 8, WordsPerSector: 2}, meter)
	cfg := fuzzCfg()
	cfg.Exec = exec
	c, err := ctrl.New(k, cfg, p, tags, data, d.Req, d.Resp, meter)
	if err != nil {
		t.Fatalf("ctrl.New rejected a program Verify accepted with the same limits: %v", err)
	}
	cc := &classCounter{}
	c.SetTraceSink(cc)
	base := img.AllocWords(64)
	for i := 0; i < 16; i++ {
		c.SetEnv(i, base)
	}
	reqs := []ctrl.MetaReq{
		{ID: 1, Op: ctrl.MetaLoad, Key: metatag.Key{3, 0}},
		{ID: 2, Op: ctrl.MetaStore, Key: metatag.Key{5, 0}, Payload: 9},
		{ID: 3, Op: ctrl.MetaStoreMerge, Key: metatag.Key{5, 0}, Payload: 4},
		{ID: 4, Op: ctrl.MetaLoad, Key: metatag.Key{3, 0}},
	}
	var out execOutcome
	sent := 0
	k.Add(sim.ComponentFunc(func(cy sim.Cycle) {
		for {
			r, ok := c.RespQ.Pop()
			if !ok {
				break
			}
			out.resps = append(out.resps, r)
		}
		for sent < len(reqs) {
			r := reqs[sent]
			r.Issued = cy
			if !c.ReqQ.Push(r) {
				return
			}
			sent++
		}
	}))
	k.Run(20_000)
	out.stats = c.Stats()
	out.meter = *meter
	out.trap = c.Trap()
	out.live = c.Tags.Live()
	out.free = c.Data.FreeSectors()
	out.cycles = k.Cycle()
	if cc.hits != out.stats.Hits || cc.misses != out.stats.Misses {
		t.Fatalf("executor %d: trace classifies %d hits and %d misses, Stats counts %d and %d",
			exec, cc.hits, cc.misses, out.stats.Hits, out.stats.Misses)
	}
	return out
}

// diverged compares two outcomes and reports the first mismatch.
func diverged(a, b execOutcome) string {
	if a.stats != b.stats {
		return "stats"
	}
	if a.meter != b.meter {
		return "energy meter"
	}
	if len(a.resps) != len(b.resps) {
		return "response count"
	}
	for i := range a.resps {
		ra, rb := a.resps[i], b.resps[i]
		if ra.ID != rb.ID || ra.Status != rb.Status || ra.Value != rb.Value ||
			ra.Words != rb.Words || len(ra.Data) != len(rb.Data) {
			return "response"
		}
		for j := range ra.Data {
			if ra.Data[j] != rb.Data[j] {
				return "response data"
			}
		}
	}
	switch {
	case (a.trap == nil) != (b.trap == nil):
		return "trap presence"
	case a.trap != nil && *a.trap != *b.trap:
		return "trap record"
	}
	if a.live != b.live {
		return "live meta-tag entries"
	}
	if a.free != b.free {
		return "free data sectors"
	}
	if a.cycles != b.cycles {
		return "cycle count"
	}
	return ""
}

// FuzzExecDiff feeds fuzzed-but-verified programs through both executors
// and fails on any observable divergence. The seed corpus is every real
// DSA walker plus the historical panic-regression mutants; the committed
// testdata corpus adds programs that together contain every action
// (TestExecDiffCorpusCoversEveryOp) beside inputs the parser rejects.
func FuzzExecDiff(f *testing.F) {
	for _, bin := range seedBinaries(f) {
		f.Add(bin)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var pi, pf program.Program
		if err := pi.UnmarshalBinary(data); err != nil {
			return
		}
		if err := program.Verify(&pi, fuzzVerifyCfg()); err != nil {
			return
		}
		if err := pf.UnmarshalBinary(data); err != nil {
			t.Fatalf("second unmarshal of accepted bytes failed: %v", err)
		}
		oi := runExecPath(t, &pi, ctrl.ExecInterp)
		of := runExecPath(t, &pf, ctrl.ExecFast)
		if where := diverged(oi, of); where != "" {
			t.Fatalf("executors diverged at %s\ninterp: %+v\nfast:   %+v", where, oi, of)
		}
	})
}

// TestExecDiffCorpusCoversEveryOp fails when the committed FuzzExecDiff
// inputs that parse and verify under fuzzVerifyCfg miss an action from
// OpAdd to OpWriteD: the corpus must put every op through both executors.
func TestExecDiffCorpusCoversEveryOp(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzExecDiff", "*"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[isa.Op]bool{}
	verified := 0
	for _, f := range files {
		data := readCorpusBytes(t, f)
		var p program.Program
		if p.UnmarshalBinary(data) != nil || program.Verify(&p, fuzzVerifyCfg()) != nil {
			continue
		}
		verified++
		for _, in := range p.Code {
			seen[in.Op] = true
		}
	}
	var missing []string
	for op := isa.OpAdd; op <= isa.OpWriteD; op++ {
		if !seen[op] {
			missing = append(missing, op.Name())
		}
	}
	if len(missing) > 0 {
		t.Fatalf("%d of %d committed inputs verify; together they miss %d ops: %s",
			verified, len(files), len(missing), strings.Join(missing, " "))
	}
}

// readCorpusBytes decodes a one-value []byte input in the "go test fuzz
// v1" file format.
func readCorpusBytes(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n")
	body = strings.TrimSpace(body)
	if !ok || !strings.HasPrefix(body, "[]byte(") || !strings.HasSuffix(body, ")") {
		t.Fatalf("%s: not a one-value []byte corpus file", path)
	}
	s, err := strconv.Unquote(body[len("[]byte(") : len(body)-1])
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
