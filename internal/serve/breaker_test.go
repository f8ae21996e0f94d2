package serve

import (
	"testing"

	"xcache/internal/program"
	"xcache/internal/sim"
)

// --- unit: the breaker state machine in isolation ---

func TestBreakerTripsOnTraps(t *testing.T) {
	b := newBreaker(BreakerConfig{TrapTrip: 2})
	if b.state != BreakerClosed {
		t.Fatal("not closed at birth")
	}
	b.recordTrap(1, 10)
	if b.state != BreakerClosed {
		t.Fatal("tripped below threshold")
	}
	b.recordTrap(1, 11)
	if b.state != BreakerOpen {
		t.Fatal("did not trip at threshold")
	}
	if b.trips != 1 {
		t.Fatalf("trips = %d, want 1", b.trips)
	}
	if ok, _ := b.admit(); ok {
		t.Fatal("open breaker admitted")
	}
	if b.allowForward() {
		t.Fatal("open breaker allows forwarding")
	}
}

func TestBreakerTimeoutDecay(t *testing.T) {
	b := newBreaker(BreakerConfig{Window: 100, TimeoutTrip: 4})
	b.recordTimeout(1)
	b.recordTimeout(2)
	b.recordTimeout(3)
	// Decay halves the count (3 -> 1) before it can reach the trip point.
	b.maintain(150, func() bool { return false })
	b.recordTimeout(151)
	b.recordTimeout(152)
	if b.state != BreakerClosed {
		t.Fatal("tripped despite decay")
	}
	b.recordTimeout(153)
	if b.state != BreakerOpen {
		t.Fatal("did not trip on sustained timeouts")
	}
}

func TestBreakerDrainProbeClose(t *testing.T) {
	b := newBreaker(BreakerConfig{TrapTrip: 1, Cooldown: 50, Probes: 2})
	b.recordTrap(1, 100)
	if b.state != BreakerOpen {
		t.Fatal("not open")
	}
	// Not idle yet: no drain, no trap clear.
	if b.maintain(101, func() bool { return false }) {
		t.Fatal("cleared trap before idle")
	}
	// Idle: drain completes exactly once, starting the cooldown.
	if !b.maintain(102, func() bool { return true }) {
		t.Fatal("did not signal trap clear on drain")
	}
	if b.maintain(103, func() bool { return true }) {
		t.Fatal("signalled trap clear twice")
	}
	// Cooldown holds...
	b.maintain(140, func() bool { return true })
	if b.state != BreakerOpen {
		t.Fatal("left open before cooldown")
	}
	// ...then half-open with a probe budget.
	b.maintain(152, func() bool { return true })
	if b.state != BreakerHalfOpen {
		t.Fatal("not half-open after cooldown")
	}
	var probes int
	for {
		ok, probe := b.admit()
		if !ok {
			break
		}
		if !probe {
			t.Fatal("half-open admission not marked probe")
		}
		probes++
	}
	if probes != 2 {
		t.Fatalf("probe budget %d, want 2", probes)
	}
	b.probeSuccess()
	b.probeSuccess()
	if b.state != BreakerClosed {
		t.Fatal("did not close after successful probes")
	}
}

func TestBreakerProbeFailDoublesCooldown(t *testing.T) {
	b := newBreaker(BreakerConfig{TrapTrip: 1, Cooldown: 50, Probes: 1})
	b.recordTrap(1, 0)
	b.maintain(1, func() bool { return true }) // drain @1, cooldown 50
	b.maintain(52, func() bool { return true })
	if b.state != BreakerHalfOpen {
		t.Fatal("not half-open")
	}
	b.admit()
	b.probeFail(53)
	if b.state != BreakerOpen {
		t.Fatal("probe failure did not reopen")
	}
	if b.cooldown != 100 {
		t.Fatalf("cooldown %d after failed probe, want 100", b.cooldown)
	}
	if b.trips != 2 {
		t.Fatalf("trips = %d, want 2", b.trips)
	}
}

// --- integration: a poisoned walker program trips the breaker through
// the controller's real trap path, and the service degrades gracefully ---

// poisonSpec walks array[key] like ArraySpec, but keys below e1 branch
// into a Poison state that declares no Fill handler: when the fill
// arrives, the controller raises TrapMissingTransition and quiesces the
// walker. A structural program fault, exactly what the breaker is for.
func poisonSpec() program.Spec {
	return program.Spec{
		Name:   "poisonwalk",
		States: []string{"WaitFill", "Poison"},
		Transitions: []program.Transition{
			{State: "Default", Event: "MetaLoad", Asm: `
				allocm
				lde r4, e0
				lde r6, e1
				shl r5, r1, 3
				add r5, r4, r5
				enqfilli r5, 1
				blt r1, r6, poison
				state WaitFill
			poison:
				state Poison
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
			// Poison handles only MetaStore — enough to satisfy the static
			// verifier's wakeability check — so the Fill we enqueued has no
			// routine and raises TrapMissingTransition at runtime.
			{State: "Poison", Event: "MetaStore", Asm: `
				halt Valid
			`},
		},
	}
}

func TestBreakerPoisonedShard(t *testing.T) {
	const poisonBelow = 32
	cfg := Config{
		Shards:  1,
		Tenants: []TenantGroup{{Count: 4, Rate: 0.05, Skew: 1.1}},
		Keys:    1 << 10,
		// Hot-skewed keys hammer the poisoned range continuously.
		Duration: 30_000,
		Seed:     17,
		Spec:     poisonSpec(),
		Breaker:  BreakerConfig{Window: 1024, TrapTrip: 2, Cooldown: 512, Probes: 2},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.shards[0].cache.SetEnv(1, poisonBelow)
	r, err := s.Run()
	if err != nil {
		t.Fatalf("Run under poisoned program: %v", err)
	}
	checkLedger(t, r)

	sh := r.Shards[0]
	if sh.Traps == 0 {
		t.Fatal("poison program raised no traps")
	}
	if sh.BreakerTrips == 0 {
		t.Fatal("sustained traps did not trip the breaker")
	}
	if sh.BreakerOpenCycles == 0 {
		t.Fatal("breaker never spent a cycle open")
	}
	var shedBreaker, failedTrap, completed uint64
	for _, tr := range r.Tenants {
		shedBreaker += tr.ShedBreaker
		failedTrap += tr.FailedTrap
		completed += tr.Completed
	}
	if shedBreaker == 0 {
		t.Error("open breaker shed nothing")
	}
	if failedTrap == 0 {
		t.Error("no trap casualties recorded")
	}
	// Graceful degradation: healthy keys must keep completing between
	// (and despite) breaker episodes.
	if completed == 0 {
		t.Error("no requests completed at all — degradation not graceful")
	}
}

// TestBreakerRecovers: poison traffic only at the start; once it stops,
// probes succeed and the breaker closes again.
func TestBreakerRecovers(t *testing.T) {
	const poisonBelow = 16
	cfg := Config{
		Shards:   1,
		Tenants:  []TenantGroup{{Count: 2, Rate: 0.05}},
		Keys:     1 << 10,
		Duration: 40_000,
		Seed:     19,
		Spec:     poisonSpec(),
		Breaker:  BreakerConfig{Window: 512, TrapTrip: 2, Cooldown: 256, Probes: 2},
		// Uniform keys: poison hits are early and incidental; after the
		// breaker cycles, most traffic is healthy.
		Expect: nil,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.shards[0].cache.SetEnv(1, poisonBelow)
	r, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkLedger(t, r)
	sh := r.Shards[0]
	if sh.BreakerTrips == 0 {
		t.Skip("seed produced no trips; poison range too cold")
	}
	// The breaker must not be latched open forever: it spent some cycles
	// open but far fewer than the whole run.
	if sh.BreakerOpenCycles >= uint64(cfg.Duration) {
		t.Errorf("breaker open %d of %d cycles — never recovered", sh.BreakerOpenCycles, cfg.Duration)
	}
	var completed uint64
	for _, tr := range r.Tenants {
		completed += tr.Completed
	}
	if completed == 0 {
		t.Error("nothing completed despite recovery window")
	}
}

// Compile-time interface checks.
var _ sim.Component = (*Service)(nil)

// TestBreakerHalfOpenTrapReopens pins the half-open race: a trap that
// lands while probes are in flight must reopen the breaker (with a
// doubled cooldown), and the straggler probe successes that were already
// in flight must NOT close it afterwards — closed state may only be
// reached through a full, clean probe round.
func TestBreakerHalfOpenTrapReopens(t *testing.T) {
	b := newBreaker(BreakerConfig{TrapTrip: 1, Cooldown: 50, Probes: 4})
	b.recordTrap(1, 0)
	b.maintain(1, func() bool { return true }) // drain, cooldown 50
	b.maintain(52, func() bool { return true })
	if b.state != BreakerHalfOpen {
		t.Fatal("not half-open after cooldown")
	}

	// Admit all four probes; three succeed, then a trap races in before
	// the last one resolves.
	for i := 0; i < 4; i++ {
		if ok, probe := b.admit(); !ok || !probe {
			t.Fatalf("probe %d not admitted", i)
		}
	}
	b.probeSuccess()
	b.probeSuccess()
	b.probeSuccess()
	if b.state != BreakerHalfOpen {
		t.Fatal("closed one probe early")
	}
	b.recordTrap(1, 60)
	if b.state != BreakerOpen {
		t.Fatalf("trap during half-open left state %v, want open", b.state)
	}
	if b.cooldown != 100 {
		t.Fatalf("cooldown %d after half-open trap, want doubled to 100", b.cooldown)
	}
	if b.trips != 2 {
		t.Fatalf("trips = %d, want 2", b.trips)
	}

	// The straggler: the fourth probe completes after the reopen. It must
	// not flip the breaker closed from the open state.
	b.probeSuccess()
	if b.state != BreakerOpen {
		t.Fatalf("late probe success closed an open breaker (state %v)", b.state)
	}
	// Nor may a late timeout in the open state touch the trip counters'
	// closed-state semantics.
	b.recordTimeout(61)
	if b.state != BreakerOpen || b.timeouts != 0 {
		t.Fatalf("late timeout perturbed open breaker: state %v timeouts %d", b.state, b.timeouts)
	}

	// The next probe round must demand a full clean sweep: after the
	// doubled cooldown, four fresh successes close it.
	b.maintain(62, func() bool { return true }) // drain again
	b.maintain(163, func() bool { return true })
	if b.state != BreakerHalfOpen {
		t.Fatalf("not half-open after doubled cooldown (state %v)", b.state)
	}
	if b.probeOK != 0 {
		t.Fatalf("probe successes carried across reopen: %d", b.probeOK)
	}
	for i := 0; i < 4; i++ {
		b.admit()
		b.probeSuccess()
	}
	if b.state != BreakerClosed {
		t.Fatal("clean probe round did not close")
	}
}
