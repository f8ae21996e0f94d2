package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// shortRun is the budget of a short-mode measure: it makes minPasses
// passes and stops.
const shortRun = time.Millisecond

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func shortWorkload(t *testing.T, name string, seed int64) workload {
	t.Helper()
	w, err := newWorkload(name, seed, true)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestMetricsMatchBenchmarkJSON checks that every run prints exactly the
// metrics BENCHMARK.json declares for its trace mode, with their units,
// and that the per-layer CPU shares sum to 1.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	readJSON(t, "../BENCHMARK.json", &bench)
	declared := func(specs []struct{ Name, Unit string }) map[string]string {
		m := map[string]string{}
		for _, s := range specs {
			m[s.Name] = s.Unit
		}
		return m
	}
	printed := func(specs []metricSpec) map[string]string {
		m := map[string]string{}
		for _, s := range specs {
			m[s.name] = s.unit
		}
		return m
	}
	if got, want := printed(endToEnd), declared(bench.EndToEnd); !maps.Equal(got, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json has %v", got, want)
	}
	if got, want := printed(perLayer), declared(bench.PerLayer); !maps.Equal(got, want) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json has %v", got, want)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", workloadNames, names)
	}

	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			rep, err := measure(shortWorkload(t, name, 0), shortRun, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := declared(bench.EndToEnd)
			if trace {
				want = declared(bench.PerLayer)
			}
			got := map[string]string{}
			shares := 0.0
			for k, m := range rep.Metrics {
				got[k] = m.Unit
				if strings.HasSuffix(k, ".self_share") {
					shares += m.Value
				}
			}
			if !maps.Equal(got, want) {
				t.Errorf("%s trace=%v printed %v, want %v", name, trace, got, want)
			}
			if trace && math.Abs(shares-1) > 1e-9 {
				t.Errorf("%s: self shares sum to %v, want 1", name, shares)
			}
		}
	}
}

// TestCountsRepeat checks that simulated cycles and every per-layer count
// repeat exactly across passes, profiled or not.
func TestCountsRepeat(t *testing.T) {
	for _, name := range workloadNames {
		w := shortWorkload(t, name, 0)
		a, err := runPass(w, &passCtx{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := runPass(w, &passCtx{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var prof bytes.Buffer
		c, err := runPass(w, &passCtx{}, &prof)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.sim.cycles == 0 || len(a.sim.counts) == 0 {
			t.Errorf("%s: pass simulated nothing: %+v", name, a.sim)
		}
		if !reflect.DeepEqual(a.sim, b.sim) {
			t.Errorf("%s: two plain passes differ:\n%+v\n%+v", name, a.sim, b.sim)
		}
		if !reflect.DeepEqual(a.sim, c.sim) {
			t.Errorf("%s: profiled pass differs from plain:\n%+v\n%+v", name, a.sim, c.sim)
		}
		pc := passCtx{setupOnly: true}
		d, err := runPass(w, &pc, nil)
		if err != nil || d.sim.cycles != 0 || d.sim.attempted != 0 || pc.inputs <= 0 || pc.system <= 0 {
			t.Errorf("%s: set-up round simulated %+v, timed inputs %v system %v, err %v", name, d.sim, pc.inputs, pc.system, err)
		}
	}
}

// TestSeedChangesInputs checks that a non-default seed reaches every
// workload's input generators.
func TestSeedChangesInputs(t *testing.T) {
	for _, name := range workloadNames {
		a, err := runPass(shortWorkload(t, name, 0), &passCtx{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runPass(shortWorkload(t, name, 1), &passCtx{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.sim, b.sim) {
			t.Errorf("%s: seeds 0 and 1 simulate the same thing", name)
		}
	}
}

// TestDRAMGateCatchesMismatch runs one pinned Fig 14 cell against its
// BENCH_1.json DRAM count, then against a perturbed count, which must
// fail the cell and the run.
func TestDRAMGateCatchesMismatch(t *testing.T) {
	const key = "GraphPulse/p2p-08[xcache]"
	w, err := newWorkload("sweep-xcache", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	sw := w.(*sweep)
	for _, s := range sw.cells {
		if cellKey(s) == key {
			sw.cells = append(sw.cells[:0], s)
			break
		}
	}
	if len(sw.cells) != 1 {
		t.Fatalf("no cell %s", key)
	}
	st, err := sw.pass(&passCtx{})
	if err != nil || st.failed != 0 || st.attempted != 1 {
		t.Fatalf("pinned cell: attempted=%d failed=%d err=%v", st.attempted, st.failed, err)
	}
	sw.expect = maps.Clone(sw.expect)
	sw.expect[key]++
	st, err = sw.pass(&passCtx{})
	if err != nil || st.failed != 1 {
		t.Fatalf("perturbed count: failed=%d err=%v, want 1 failure", st.failed, err)
	}
	rep, err := measure(sw, shortRun, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 {
		t.Errorf("perturbed count: correct=%v failed=%d", rep.Correct, rep.Failed)
	}
}

// TestControllerCells pins which sweep cells feed the ctrl.* counts: all
// ten X-Cache cells and the four hardwired baselines of sweep-addr.
func TestControllerCells(t *testing.T) {
	for name, want := range map[string][]string{
		"sweep-xcache": nil,
		"sweep-addr": {"SpArch/p2p-31[baseline]", "Gamma/p2p-31[baseline]",
			"GraphPulse/p2p-08[baseline]", "GraphPulse/web-Google[baseline]"},
	} {
		sw := shortWorkload(t, name, 0).(*sweep)
		var got []string
		for _, s := range sw.cells {
			if runsController(s) && name == "sweep-addr" {
				got = append(got, cellKey(s))
			}
			if !runsController(s) && name == "sweep-xcache" {
				t.Errorf("%s: X-Cache cell %s runs no controller", name, cellKey(s))
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: controller cells %v, want %v", name, got, want)
		}
	}
}

// excludedWork is a workload whose only work, an allocation and a spin,
// is excluded from its pass.
type excludedWork struct {
	buf  []byte
	spin uint64
}

func (w *excludedWork) pass(pc *passCtx) (passStats, error) {
	pc.exclude(func() {
		w.buf = make([]byte, 64<<20)
		for t := time.Now(); time.Since(t) < 300*time.Millisecond; {
			w.spin++
		}
		w.buf = nil
	})
	return passStats{cycles: 1, attempted: 1, completed: 1}, nil
}

// TestExcludedWorkNotCounted checks that work a pass excludes, such as the
// sweeps' set-up copy, adds nothing to its host time, allocations or GC
// cycles, nor samples to a traced pass's profile.
func TestExcludedWorkNotCounted(t *testing.T) {
	var prof bytes.Buffer
	p, err := runPass(&excludedWork{}, &passCtx{}, &prof)
	if err != nil {
		t.Fatal(err)
	}
	if p.wall > 50*time.Millisecond || p.bytes > 1<<20 || p.gcs != 0 {
		t.Errorf("excluded work counted: wall %v, %d bytes, %d GCs", p.wall, p.bytes, p.gcs)
	}
	samples := map[string]float64{}
	if err := addSamples(samples, prof.Bytes()); err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range samples {
		total += v
	}
	if total > float64(50*time.Millisecond) {
		t.Errorf("%v of excluded CPU time profiled: %v", time.Duration(total), samples)
	}
}

// TestFig14TableMatchesBENCH1 checks the benchmark's pinned DRAM counts
// against BENCH_1.json's fig14 rows.
func TestFig14TableMatchesBENCH1(t *testing.T) {
	var b struct {
		Figures []struct {
			ID     string
			Header []string
			Rows   [][]string
		}
	}
	readJSON(t, "../BENCH_1.json", &b)
	got := map[string]uint64{}
	for _, f := range b.Figures {
		if f.ID != "fig14" {
			continue
		}
		col := map[string]int{}
		for i, h := range f.Header {
			col[h] = i
		}
		for _, r := range f.Rows {
			for kind, h := range map[string]string{"xcache": "DRAM accs X", "addr": "DRAM accs addr"} {
				n, err := strconv.ParseUint(strings.ReplaceAll(r[col[h]], ",", ""), 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				got[r[col["DSA"]]+"/"+r[col["Workload"]]+"["+kind+"]"] = n
			}
		}
	}
	if !maps.Equal(got, fig14DRAM) {
		t.Errorf("BENCH_1.json fig14 DRAM counts %v, benchmark pins %v", got, fig14DRAM)
	}
}

// TestPinnedSweeps runs both full sweeps once at the default seed: every
// cell must validate and match its BENCH_1.json DRAM count.
func TestPinnedSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full Fig 14 sweep")
	}
	for name, cycles := range map[string]uint64{"sweep-xcache": 1_723_731, "sweep-addr": 9_673_596} {
		w, err := newWorkload(name, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		st, err := w.pass(&passCtx{})
		if err != nil || st.failed != 0 || st.cycles != cycles {
			t.Errorf("%s: cycles=%d (want %d) failed=%d err=%v", name, st.cycles, cycles, st.failed, err)
		}
	}
}

// TestLayerOf pins the frame-to-layer mapping of the traced run.
func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"xcache/internal/dram.(*DRAM).issue":             "dram",
		"xcache/internal/sim.(*Queue[go.shape.int]).Pop": "sim",
		"xcache/internal/dsa/widx.RunXCache":             "dsa",
		"xcache/internal/hashidx.Build":                  "dsa",
		"xcache/internal/core.NewSystem":                 "other",
		"runtime.mallocgc":                               "runtime",
		"internal/runtime/maps.(*Map).getWithKey":        "runtime",
	} {
		if got, ok := layerOf(fn); !ok || got != want {
			t.Errorf("layerOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	for _, fn := range []string{"main.prepareCell", "sort.Slice", "slices.Sort[...]"} {
		if l, ok := layerOf(fn); ok {
			t.Errorf("layerOf(%q) = %q; want no layer", fn, l)
		}
	}
}

// TestBadArguments checks that usage errors exit non-zero without a result.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "coh-rw", "--trace", "2"},
		{"--workload", "coh-rw", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d, stdout %q", args, code, out.String())
		}
	}
}
