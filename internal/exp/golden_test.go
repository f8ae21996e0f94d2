package exp

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"xcache/internal/exp/runner"
	"xcache/internal/stats"
)

var update = flag.Bool("update", false, "rewrite testdata/golden snapshots")

// goldenScale pins the snapshots at the default xcache-bench scale, so
// the golden files are simultaneously the regression reference for every
// headline number and the byte-identity witness for the parallel runner.
const goldenScale = 25

var (
	goldenOnce   sync.Once
	goldenRunner *runner.Runner
	goldenSw     *Sweep
	goldenErr    error
)

// goldenSweep runs the shared scale-25 sweep once, on an 8-worker
// runner — the golden files it feeds must match serial output exactly
// (TestSweepDeterminism pins that equivalence).
func goldenSweep(t *testing.T) (*runner.Runner, *Sweep) {
	t.Helper()
	goldenOnce.Do(func() {
		goldenRunner = runner.New(8)
		goldenSw, goldenErr = RunSweep(goldenRunner, goldenScale)
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenRunner, goldenSw
}

// goldenOuts regenerates every table and figure at goldenScale, in the
// xcache-bench "all" order.
func goldenOuts(t *testing.T) []*Out {
	t.Helper()
	r, sw := goldenSweep(t)
	outs := []*Out{Table1(), Table2(), Table3(), Table4(), Fig4(sw)}
	for _, f := range []func(*runner.Runner, int) (*Out, error){
		Fig7,
		func(r *runner.Runner, scale int) (*Out, error) { return Fig14(sw), nil },
		func(r *runner.Runner, scale int) (*Out, error) { return Fig15(sw), nil },
		func(r *runner.Runner, scale int) (*Out, error) { return Fig16(sw), nil },
		Fig17,
		Fig18,
		func(r *runner.Runner, scale int) (*Out, error) { return Fig19(), nil },
		func(r *runner.Runner, scale int) (*Out, error) { return Fig20(), nil },
		ExtensionBTree,
		AblationProgrammability,
		AblationDesignChoices,
	} {
		o, err := f(r, goldenScale)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, o)
	}
	return outs
}

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".json")
}

func marshalOut(t *testing.T, o *Out) []byte {
	t.Helper()
	b, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestGoldenOutputs fails on any metric or table-cell drift against the
// checked-in snapshots and prints a per-cell diff. Regenerate with
//
//	go test ./internal/exp -run TestGoldenOutputs -update
func TestGoldenOutputs(t *testing.T) {
	outs := goldenOuts(t)
	if *update {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for _, o := range outs {
		if seen[o.ID] {
			t.Fatalf("duplicate output id %q", o.ID)
		}
		seen[o.ID] = true
		got := marshalOut(t, o)
		path := goldenPath(o.ID)
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: missing golden snapshot (run with -update): %v", o.ID, err)
			continue
		}
		if bytes.Equal(got, want) {
			continue
		}
		// Decode the snapshot and report exactly which cells and metrics
		// drifted.
		var ref Out
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Errorf("%s: corrupt golden snapshot: %v", o.ID, err)
			continue
		}
		var diffs []string
		if o.Table != nil && ref.Table != nil {
			diffs = append(diffs, stats.Diff(o.Table, ref.Table)...)
		}
		for k, v := range o.Metrics {
			if rv, ok := ref.Metrics[k]; !ok {
				diffs = append(diffs, fmt.Sprintf("metric %s: got %v, absent in snapshot", k, v))
			} else if v != rv {
				diffs = append(diffs, fmt.Sprintf("metric %s: got %v want %v", k, v, rv))
			}
		}
		for k, rv := range ref.Metrics {
			if _, ok := o.Metrics[k]; !ok {
				diffs = append(diffs, fmt.Sprintf("metric %s: want %v, absent in output", k, rv))
			}
		}
		if len(diffs) == 0 {
			diffs = append(diffs, "notes or encoding drifted (tables and metrics match)")
		}
		t.Errorf("%s: output drifted from %s:", o.ID, path)
		for _, d := range diffs {
			t.Errorf("  %s", d)
		}
	}
	if !*update {
		// Every snapshot on disk must correspond to a live output: a
		// renamed figure must not leave a stale golden behind.
		entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			id := e.Name()
			if filepath.Ext(id) != ".json" {
				continue
			}
			id = id[:len(id)-len(".json")]
			if !seen[id] {
				t.Errorf("stale golden snapshot %s: no output with id %q", e.Name(), id)
			}
		}
	}
}
