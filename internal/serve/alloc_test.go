package serve

import (
	"testing"

	"xcache/internal/payload"
)

// TestWarmTickAllocatesNothing: once a loaded service has warmed up (its
// request table, retry heap, in-flight logs and queue rings have grown
// to their working size), a supervised cycle allocates nothing. The
// per-attempt timeout is close to a DRAM round trip, and the breaker
// never trips on timeouts, so the measured cycles time out, retry and
// discard late responses.
func TestWarmTickAllocatesNothing(t *testing.T) {
	s, err := New(Config{
		Shards:   2,
		Tenants:  []TenantGroup{{Count: 4, Rate: 0.05}},
		Keys:     1 << 12,
		Duration: 1_000_000,
		Seed:     3,
		Timeout:  60,
		Breaker:  BreakerConfig{TimeoutTrip: 1 << 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		if err := s.h.Step(); err != nil {
			t.Fatal(err)
		}
		if s.fatal != nil {
			t.Fatal(s.fatal)
		}
	}
	for i := 0; i < 30_000; i++ {
		step()
	}
	reissues := s.reissues
	if allocs := testing.AllocsPerRun(5_000, step); allocs != 0 {
		t.Fatalf("a warm serve cycle made %v allocations, want 0", allocs)
	}
	if s.reissues == reissues {
		t.Fatal("the measured cycles retried nothing")
	}
}

// TestGoldensPoisoned reruns both golden runs with the payload poison
// hook on: a component that read a payload after releasing it would read
// poison, and the report would drift. Each run ends with the harness
// audit, which checks the payload ledger.
func TestGoldensPoisoned(t *testing.T) {
	payload.SetPoison(true)
	defer payload.SetPoison(false)
	checkGolden(t, "determinism.golden.json", run(t, determinismConfig()))
	checkGolden(t, "chaos-42.golden.json", run(t, chaosConfig(42)))
}
