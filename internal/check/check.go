// Package check is the simulation hardening-and-verification layer: a
// deadlock/livelock watchdog that turns silent budget exhaustion into a
// structured StallReport, invariant checkers that validate the kernel's
// microarchitectural discipline every cycle (queue rules, and each
// component's own self-check: controller bounds, DRAM timing, the
// coherent hierarchy's protocol), and a deterministic, seeded fault
// injector (dropped/delayed DRAM responses, transiently-full
// queues, meta-tag bit flips) that exercises the controller's recovery
// paths.
//
// The repo replaces the paper's RTL simulation with a hand-written
// cycle-level kernel, so this layer is the only thing standing between a
// kernel bug and a silently-wrong figure reproduction. Everything is
// opt-in: a nil *Config attaches nothing. A checked cycle reads what the
// kernel already keeps in every run (its move counter, each queue's
// last-pop stamp and the list of queues the step committed), so its cost
// follows what moved in the cycle, not the number of queues.
//
// Usage:
//
//	h := check.Attach(sys.K, &check.Config{Watchdog: 50_000, Invariants: true})
//	ok, report := check.Run(h, sys.K, done, maxCycles)
//	if !ok {
//	    log.Fatal(report) // names stuck queues, in-flight walkers, bank state
//	}
package check

import (
	"errors"
	"fmt"

	"xcache/internal/ctrl"
	"xcache/internal/dram"
	"xcache/internal/payload"
	"xcache/internal/sim"
)

// Config selects which hardening features attach to a kernel.
type Config struct {
	// Watchdog is the number of cycles without forward progress (no queue
	// push/pop, no component activity) before the run is declared wedged
	// and aborted with a StallReport. 0 disables the watchdog.
	Watchdog int
	// Invariants enables the per-cycle checkers: queue conservation
	// (pushes − pops == occupancy), DRAM timing-protocol assertions,
	// controller bounds (≤ #Exe wakes and actions per cycle, MSHR ledger
	// consistency), and a coherent hierarchy's protocol rules.
	Invariants bool
	// Faults configures deterministic fault injection; the zero value
	// injects nothing.
	Faults FaultConfig
	// Seed drives every fault decision; the same seed replays the same
	// run exactly.
	Seed uint64
}

// Default returns the standard verification configuration: watchdog and
// invariants on, faults off.
func Default() *Config {
	return &Config{Watchdog: 50_000, Invariants: true}
}

// FaultConfig sets per-event fault probabilities. All rates are
// per-opportunity (per response, per queue per cycle, per cycle).
type FaultConfig struct {
	DropResp  float64 // probability a DRAM read response is dropped
	DelayResp float64 // probability a DRAM read response is delayed
	DelayMax  int     // maximum extra cycles for a delayed response (default 256)
	ClogQueue float64 // probability a controller queue reports full a given cycle
	FlipBit   float64 // probability per cycle of flipping a stored meta-tag key bit

	// FillTimeout overrides the controller's retry timeout for unanswered
	// fills: 0 derives a default, negative disables retry entirely (used
	// to test the watchdog against a genuine wedge).
	FillTimeout int

	// Channels holds deterministic channel-level fault episodes (hard
	// outage, issue stall, burst latency) for multi-channel DRAM
	// topologies. Each episode names the channel it applies to; the
	// owning service wires the per-channel Disruptor via
	// Injector.ChannelDisruptor.
	Channels []ChannelFault
}

// Any reports whether any fault class is enabled.
func (f FaultConfig) Any() bool {
	return f.DropResp > 0 || f.DelayResp > 0 || f.ClogQueue > 0 || f.FlipBit > 0 ||
		len(f.Channels) > 0
}

// defaultFillTimeout is generous against worst-case DRAM queueing so a
// slow genuine response is rarely declared lost (the duplicate would be
// discarded as spurious, costing only redundant DRAM traffic).
const defaultFillTimeout = 1024

// selfChecker is implemented by components that can audit their own
// invariants after a step (ctrl.Controller, dram.DRAM, hier.Directory).
type selfChecker interface {
	CheckInvariants(c sim.Cycle) error
}

// protocolChecker is a component whose self-check of its own protocol
// is off until Attach enables it: DRAM timing (dram.DRAM) and coherence
// (hier.Directory).
type protocolChecker interface {
	EnableProtocolCheck()
}

// activitySource is a component exposing a monotonic progress counter.
type activitySource interface {
	ActivityCount() uint64
}

// Diagnoser is a component that can describe its internal state for a
// StallReport.
type Diagnoser interface {
	DiagnoseName() string
	Diagnose() []string
}

// Harness holds everything attached to one kernel.
type Harness struct {
	Cfg Config

	k     *sim.Kernel
	wd    *watchdog
	inv   *invariants
	inj   *Injector
	diags []Diagnoser
	ctrls []*ctrl.Controller
}

// testHookAttach, when non-nil, is called with every harness Attach
// builds. The package's tests set it to run the full-scan reference
// checkers beside the harness in lockstep (reference_test.go).
var testHookAttach func(*Harness)

// Attach wires the configured hardening features into the kernel. Call it
// after every component is registered (it discovers controllers, DRAM
// channels and queues by inspection). A nil cfg returns a nil harness;
// Run on a nil harness falls back to the kernel's plain RunUntil.
func Attach(k *sim.Kernel, cfg *Config) *Harness {
	if cfg == nil {
		return nil
	}
	h := &Harness{Cfg: *cfg, k: k}

	var ctrls []*ctrl.Controller
	var drams []*dram.DRAM
	var protos []protocolChecker
	for _, c := range k.Components() {
		switch v := c.(type) {
		case *ctrl.Controller:
			ctrls = append(ctrls, v)
		case *dram.DRAM:
			drams = append(drams, v)
		}
		if p, ok := c.(protocolChecker); ok {
			protos = append(protos, p)
		}
		if d, ok := c.(Diagnoser); ok {
			h.diags = append(h.diags, d)
		}
	}
	h.ctrls = ctrls

	if cfg.Watchdog > 0 {
		h.wd = newWatchdog(k, cfg.Watchdog)
		k.Observe(h.wd)
	}
	if cfg.Invariants {
		for _, p := range protos {
			p.EnableProtocolCheck()
		}
		h.inv = newInvariants(k)
		k.Observe(h.inv)
	}
	if cfg.Faults.Any() {
		h.inj = newInjector(cfg.Seed, cfg.Faults, k)
		// Dropped/delayed responses are recovered by the controller's
		// timeout+retry, so they are only injected on DRAM channels whose
		// response queue feeds a controller directly; a channel below an
		// address-cache level has no retry path above it.
		for _, c := range ctrls {
			attached := false
			for _, d := range drams {
				if d.Resp == c.MemResp {
					if cfg.Faults.DropResp > 0 || cfg.Faults.DelayResp > 0 {
						d.Faults = h.inj
					}
					if cfg.Faults.ClogQueue > 0 {
						h.inj.clog(d.Resp)
					}
					attached = true
				}
			}
			if cfg.Faults.FillTimeout >= 0 && (attached || cfg.Faults.FillTimeout > 0) {
				c.Cfg.FillTimeout = cfg.Faults.FillTimeout
				if c.Cfg.FillTimeout == 0 {
					c.Cfg.FillTimeout = defaultFillTimeout
				}
			}
			if cfg.Faults.FlipBit > 0 {
				c.Cfg.ParityCheck = true
				h.inj.tags = append(h.inj.tags, c.Tags)
			}
			if cfg.Faults.ClogQueue > 0 {
				for _, q := range c.FaultQueues() {
					h.inj.clog(q)
				}
			}
		}
		if cfg.Faults.FlipBit > 0 {
			k.Observe(h.inj)
		}
	}
	if testHookAttach != nil {
		testHookAttach(h)
	}
	return h
}

// Err returns the first invariant violation observed, or nil.
func (h *Harness) Err() error {
	if h == nil || h.inv == nil {
		return nil
	}
	return h.inv.err
}

// Audit sweeps every queue's conservation rules now and returns the first
// invariant violation observed, or nil. A step audits only the queues it
// committed, so a supervised loop calls Audit once when the run is done:
// that covers the queues whose last operations were pops. Audit also
// checks the payload ledger (payload.Audit): every buffer a component
// lent is back with its pool or still held by a queued message.
func (h *Harness) Audit() error {
	if h == nil || h.inv == nil {
		return nil
	}
	h.inv.sweep(h.k.Cycle())
	if h.inv.err == nil {
		h.inv.err = payload.Audit(h.k.Components())
	}
	return h.inv.err
}

// Step advances the kernel one supervised cycle, converting a recovered
// queue-overflow panic into an error. It is the building block for run
// loops that cannot use Run because they must keep executing across
// conditions Run treats as fatal (internal/serve handles controller traps
// through its circuit breaker instead of aborting).
func (h *Harness) Step() error {
	if h == nil {
		return fmt.Errorf("check: Step on nil harness")
	}
	return h.step()
}

// Stalled reports whether the watchdog has observed no forward progress
// for its full window ending at cycle c. Always false without a watchdog.
func (h *Harness) Stalled(c sim.Cycle) bool {
	return h != nil && h.wd != nil && h.wd.stalled(c)
}

// Report assembles a StallReport from the kernel's current state, for
// callers that run their own supervised loop over Step.
func (h *Harness) Report(kind FailureKind, reason string) *StallReport {
	return h.report(kind, reason)
}

// trapped returns the first structural microcode trap raised by any
// supervised controller, or nil.
func (h *Harness) trapped() *ctrl.Trap {
	for _, c := range h.ctrls {
		if t := c.Trap(); t != nil {
			return t
		}
	}
	return nil
}

// Run steps the kernel until done reports true or the budget of max
// cycles is exhausted, under the harness's supervision. On failure —
// watchdog stall, invariant violation, queue overflow (a recovered
// MustPush panic), or budget exhaustion — it returns ok=false and a
// StallReport explaining the state of every queue and component. A nil
// harness degrades to the kernel's plain RunUntil with a nil report.
func Run(h *Harness, k *sim.Kernel, done func() bool, max int) (bool, *StallReport) {
	if h == nil {
		return k.RunUntil(done, max), nil
	}
	for i := 0; i < max; i++ {
		if done() {
			if err := h.Audit(); err != nil {
				return false, h.report(invariantKind(err), fmt.Sprintf("invariant violated: %v", err))
			}
			if t := h.trapped(); t != nil {
				return false, h.trapReport(t)
			}
			return true, nil
		}
		if err := h.step(); err != nil {
			return false, h.report(FailOverflow, fmt.Sprintf("queue overflow: %v", err))
		}
		if err := h.Err(); err != nil {
			return false, h.report(invariantKind(err), fmt.Sprintf("invariant violated: %v", err))
		}
		if t := h.trapped(); t != nil {
			return false, h.trapReport(t)
		}
		if h.wd != nil && h.wd.stalled(h.k.Cycle()) {
			return false, h.report(FailStall, fmt.Sprintf("no forward progress for %d cycles", h.Cfg.Watchdog))
		}
	}
	if done() {
		if err := h.Audit(); err != nil {
			return false, h.report(invariantKind(err), fmt.Sprintf("invariant violated: %v", err))
		}
		if t := h.trapped(); t != nil {
			return false, h.trapReport(t)
		}
		return true, nil
	}
	return false, h.report(FailBudget, fmt.Sprintf("cycle budget (%d) exhausted", max))
}

// step advances the kernel one cycle, recovering a queue-overflow panic
// into an error so it can be folded into a StallReport instead of
// crashing the process.
func (h *Harness) step() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if qf, ok := r.(*sim.QueueFullError); ok {
				err = qf
				return
			}
			panic(r)
		}
	}()
	h.k.Step()
	return nil
}

// invariantKind classifies a latched invariant error: coherence protocol
// violations get their own FailureKind so callers can separate a protocol
// bug from an ordinary microarchitectural invariant failure.
func invariantKind(err error) FailureKind {
	var cv *CoherenceViolation
	if errors.As(err, &cv) {
		return FailCoherence
	}
	return FailInvariant
}

// trapReport folds a structural microcode trap into a StallReport. The
// controller has already quiesced the walker, so the machine is healthy —
// the run still aborts, because a trapped program's results are garbage.
func (h *Harness) trapReport(t *ctrl.Trap) *StallReport {
	r := h.report(FailTrap, fmt.Sprintf("microcode trap: %v", t))
	r.Trap = t
	return r
}

// report assembles a StallReport from the kernel's current state.
func (h *Harness) report(kind FailureKind, reason string) *StallReport {
	r := &StallReport{Kind: kind, Cycle: h.k.Cycle(), Reason: reason}
	if h.wd != nil {
		r.StallCycles = h.wd.stallFor(h.k.Cycle())
	}
	for _, q := range h.k.Queues() {
		qs := QueueState{
			Name: q.Name(), Len: q.Len(), Staged: q.StagedLen(),
			Cap: q.Cap(), MaxLen: q.MaxLen(), Pushes: q.Pushes(), Pops: q.Pops(),
		}
		// A queue is stuck when it holds entries that nobody has popped
		// for a full watchdog window.
		if qs.Len > 0 && (h.wd == nil || h.wd.frozen(q, r.Cycle)) {
			qs.Stuck = true
		}
		r.Queues = append(r.Queues, qs)
	}
	for _, d := range h.diags {
		r.Components = append(r.Components, ComponentState{Name: d.DiagnoseName(), Detail: d.Diagnose()})
	}
	return r
}

// --- deterministic PRNG (splitmix64 finalizer over hashed streams) ---

// Mix64 is the splitmix64 finalizer behind the simulator's seeded
// runtime decisions: fault rolls, service arrivals and shard hashing,
// coherence fault rolls.
func Mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// Roll returns a uniform value in [0,1) determined entirely by the seed,
// the stream, and the two salts. It keeps no state, so a decision never
// depends on tick order, worker count, or which other streams drew.
func Roll(seed, stream, a, b uint64) float64 {
	z := seed ^ stream*0x9e3779b97f4a7c15 ^ a*0xff51afd7ed558ccd ^ b*0xc4ceb9fe1a85ec53
	return float64(Mix64(z)>>11) / (1 << 53)
}

func hashString(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
