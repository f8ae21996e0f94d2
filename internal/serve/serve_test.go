package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xcache/internal/check"
)

// update rewrites the golden reports instead of comparing against them:
//
//	go test ./internal/serve -update
var update = flag.Bool("update", false, "rewrite testdata/*.golden.json")

// run builds and runs a service, failing the test on any error.
func run(t *testing.T, cfg Config) *Report {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return r
}

// checkGolden compares the indented JSON of r with testdata/name byte
// for byte and reports the first line that differs.
func checkGolden(t *testing.T, name string, r *Report) {
	t.Helper()
	got, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden missing (run with -update to create): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("report drifted from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("report drifted from %s: %d lines, want %d", path, len(gl), len(wl))
}

// checkLedger asserts exact conservation on a finished report:
// generated = completed + shed + failed, globally and per tenant.
func checkLedger(t *testing.T, r *Report) {
	t.Helper()
	tot := r.Totals
	if tot.Generated != tot.Completed+tot.Shed+tot.Failed {
		t.Errorf("totals not conserved: generated %d != completed %d + shed %d + failed %d",
			tot.Generated, tot.Completed, tot.Shed, tot.Failed)
	}
	var gen, comp, shed, failed uint64
	for _, tr := range r.Tenants {
		gen += tr.Generated
		comp += tr.Completed
		shed += tr.ShedRate + tr.ShedQueue + tr.ShedBreaker + tr.ShedSLO
		failed += tr.FailedDeadline + tr.FailedTrap
		if tr.Generated != tr.Completed+tr.ShedRate+tr.ShedQueue+tr.ShedBreaker+tr.ShedSLO+tr.FailedDeadline+tr.FailedTrap {
			t.Errorf("tenant %d not conserved", tr.Tenant)
		}
	}
	if gen != tot.Generated || comp != tot.Completed || shed != tot.Shed || failed != tot.Failed {
		t.Errorf("tenant sums (%d,%d,%d,%d) != totals (%d,%d,%d,%d)",
			gen, comp, shed, failed, tot.Generated, tot.Completed, tot.Shed, tot.Failed)
	}
}

func TestSmoke(t *testing.T) {
	r := run(t, Config{
		Shards:   2,
		Tenants:  []TenantGroup{{Count: 4, Rate: 0.05}},
		Keys:     1 << 12,
		Duration: 20_000,
		Seed:     1,
	})
	checkLedger(t, r)
	if r.Totals.Generated == 0 {
		t.Fatal("no requests generated")
	}
	if r.Totals.Completed == 0 {
		t.Fatal("no requests completed")
	}
	// An unloaded, fault-free run should complete nearly everything.
	if frac := float64(r.Totals.Completed) / float64(r.Totals.Generated); frac < 0.95 {
		t.Errorf("only %.1f%% completed in an unloaded run", 100*frac)
	}
	if r.Latency.P99 == 0 {
		t.Error("p99 latency is zero")
	}
}

// determinismConfig is the run determinism.golden.json pins.
func determinismConfig() Config {
	return Config{
		Shards:   4,
		Tenants:  []TenantGroup{{Count: 6, Rate: 0.04, Skew: 0.9}, {Count: 2, Priority: 4, Rate: 0.02}},
		Keys:     1 << 12,
		Duration: 15_000,
		Seed:     7,
		Faults:   check.FaultConfig{DropResp: 0.01, ClogQueue: 0.002},
	}
}

// TestDeterminism: the report matches its golden and is byte-identical
// across same-seed reruns.
func TestDeterminism(t *testing.T) {
	cfg := determinismConfig()
	r := run(t, cfg)
	checkGolden(t, "determinism.golden.json", r)
	first, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	again, err := json.Marshal(run(t, cfg))
	if err != nil {
		t.Fatalf("marshal rerun: %v", err)
	}
	if string(first) != string(again) {
		t.Error("same-seed reruns differ")
	}
}

// TestOverloadSheds: at 2x overload with rate-limited buckets the service
// sheds rather than failing, and keeps completing what it admits.
func TestOverloadSheds(t *testing.T) {
	r := run(t, Config{
		Shards:   2,
		Tenants:  []TenantGroup{{Count: 8, Rate: 0.05}},
		Keys:     1 << 12,
		Duration: 20_000,
		Seed:     3,
		Overload: 2.0,
	})
	checkLedger(t, r)
	if r.Totals.Shed == 0 {
		t.Fatal("2x overload shed nothing")
	}
	// Admitted work still completes: failures must stay rare.
	if r.Totals.Failed*100 > r.Totals.Generated {
		t.Errorf("failed %d of %d generated (>1%%) under overload", r.Totals.Failed, r.Totals.Generated)
	}
	if r.Totals.ShedRate < 0.1 {
		t.Errorf("shed rate %.3f unexpectedly low at 2x overload", r.Totals.ShedRate)
	}
}

// TestPriorityShedding: under queue pressure, low-priority tenants shed
// strictly more than high-priority ones.
func TestPriorityShedding(t *testing.T) {
	r := run(t, Config{
		Shards: 1,
		Tenants: []TenantGroup{
			{Count: 4, Priority: 0, Rate: 0.2},
			{Count: 4, Priority: 6, Rate: 0.2},
		},
		Keys:     1 << 10,
		Duration: 20_000,
		Seed:     5,
		Overload: 3.0,
		// Wide-open buckets so the ingress queue is the contended resource.
		BucketRate:  1,
		BucketBurst: 64,
	})
	checkLedger(t, r)
	var lowShed, highShed, lowGen, highGen uint64
	for _, tr := range r.Tenants {
		if tr.Priority == 0 {
			lowShed += tr.ShedQueue
			lowGen += tr.Generated
		} else {
			highShed += tr.ShedQueue
			highGen += tr.Generated
		}
	}
	if lowGen == 0 || highGen == 0 {
		t.Fatal("degenerate generation")
	}
	lowFrac := float64(lowShed) / float64(lowGen)
	highFrac := float64(highShed) / float64(highGen)
	if lowFrac <= highFrac {
		t.Errorf("priority inversion: low-prio queue-shed %.3f <= high-prio %.3f", lowFrac, highFrac)
	}
}

// TestBackpressure: a tiny ingress queue in front of a slow shard forces
// explicit backpressure cycles and queue sheds, not overflows or stalls.
func TestBackpressure(t *testing.T) {
	r := run(t, Config{
		Shards:       1,
		Tenants:      []TenantGroup{{Count: 8, Rate: 0.3}},
		Keys:         1 << 14,
		Duration:     10_000,
		Seed:         11,
		IngressDepth: 8,
		ForwardPer:   2,
		BucketRate:   1,
		BucketBurst:  64,
	})
	checkLedger(t, r)
	sh := r.Shards[0]
	if sh.BPCycles == 0 && r.Totals.Shed == 0 {
		t.Error("expected backpressure or shedding with a depth-8 ingress at high load")
	}
}

// TestRetryRecoversDrops: with DRAM response drops, fill-timeout
// reissue plus service-level retries keep completion high and no request
// is lost from the ledger.
func TestRetryRecoversDrops(t *testing.T) {
	r := run(t, Config{
		Shards:   2,
		Tenants:  []TenantGroup{{Count: 4, Rate: 0.03}},
		Keys:     1 << 12,
		Duration: 20_000,
		Seed:     13,
		Faults:   check.FaultConfig{DropResp: 0.02},
	})
	checkLedger(t, r)
	var fillRetries uint64
	for _, sh := range r.Shards {
		fillRetries += sh.FillRetries
	}
	if r.Faults == nil || r.Faults.Drops == 0 {
		t.Fatal("no drops injected")
	}
	if fillRetries == 0 {
		t.Error("drops injected but no fill retries recorded")
	}
	if frac := float64(r.Totals.Completed) / float64(r.Totals.Generated); frac < 0.9 {
		t.Errorf("completion %.3f under 2%% drop rate — retries not recovering", frac)
	}
}
