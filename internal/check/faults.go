package check

import (
	"xcache/internal/dram"
	"xcache/internal/metatag"
	"xcache/internal/sim"
)

// PRNG stream selectors: every fault decision hashes (seed, stream,
// cycle, salt) through an independent stream so enabling one fault class
// never perturbs another class's decisions.
const (
	streamDrop = 1 + iota
	streamDelay
	streamDelayAmt
	streamClog
	streamFlipGate
	streamFlipPick
	streamFlipWord
	streamFlipBit
	streamFlipArr
)

// Injector makes every fault decision from a stateless hash of
// (seed, stream, cycle, salt), so a run is exactly reproducible from its
// seed: no hidden PRNG state, no dependence on call order, and queue-full
// decisions are stable across repeated CanPush calls within a cycle.
type Injector struct {
	cfg  FaultConfig
	seed uint64
	k    *sim.Kernel
	tags []*metatag.Array

	// Counters of injected faults (for logs and smoke tests). Clogs
	// counts refused CanPush/Free calls, so one clogged queue-cycle may
	// count more than once.
	Drops  uint64
	Delays uint64
	Clogs  uint64
	Flips  uint64
	// ChanFaults counts channel-cycle fault applications (one per active
	// episode per cycle).
	ChanFaults uint64
}

func newInjector(seed uint64, cfg FaultConfig, k *sim.Kernel) *Injector {
	if cfg.DelayMax <= 0 {
		cfg.DelayMax = 256
	}
	return &Injector{cfg: cfg, seed: seed, k: k}
}

// NewInjector creates a standalone fault injector for service layers
// (internal/serve) whose topology Attach cannot discover — e.g. a DRAM
// channel reached through a mux, or ingress queues the harness does not
// know about. The caller wires it up: assign it to dram.DRAM.Faults for
// drop/delay faults, Clog the queues that should clog, WatchTags +
// kernel.Observe for bit flips.
func NewInjector(seed uint64, cfg FaultConfig, k *sim.Kernel) *Injector {
	return newInjector(seed, cfg, k)
}

// Clog installs the transient-fullness fault hook on a queue (exported
// wrapper over the hook Attach wires automatically).
func (in *Injector) Clog(q sim.Clogger) { in.clog(q) }

// WatchTags registers a meta-tag array as a bit-flip target. The caller
// must also register the injector as a kernel observer (k.Observe) for
// the per-cycle flip gate to fire, and should enable the owning
// controller's ParityCheck so corruptions are scrubbed rather than served.
func (in *Injector) WatchTags(a *metatag.Array) { in.tags = append(in.tags, a) }

// ReadResponse implements dram.FaultInjector: called once per read
// response at completion time. Retries of a dropped fill arrive at later
// cycles and therefore roll independently, so a bounded retry budget
// converges even at high drop rates.
func (in *Injector) ReadResponse(r dram.Response, c sim.Cycle) (drop bool, delay int) {
	salt := r.Addr ^ r.ID<<1
	if in.cfg.DropResp > 0 && Roll(in.seed, streamDrop, uint64(c), salt) < in.cfg.DropResp {
		in.Drops++
		return true, 0
	}
	if in.cfg.DelayResp > 0 && Roll(in.seed, streamDelay, uint64(c), salt) < in.cfg.DelayResp {
		in.Delays++
		d := 1 + int(Roll(in.seed, streamDelayAmt, uint64(c), salt)*float64(in.cfg.DelayMax))
		return false, d
	}
	return false, 0
}

// clog installs a transient-fullness hook on a queue: some cycles the
// queue reports full to producers even though slots are free, forcing
// their back-pressure paths. The decision depends only on (seed, queue
// name, cycle) so it is identical on every CanPush call within a cycle.
func (in *Injector) clog(q sim.Clogger) {
	name := hashString(q.Name())
	q.SetClog(func() bool {
		if Roll(in.seed, streamClog, uint64(in.k.Cycle()), name) < in.cfg.ClogQueue {
			in.Clogs++
			return true
		}
		return false
	})
}

// AfterStep implements sim.Observer; it fires the per-cycle bit-flip
// gate and corrupts one stored meta-tag key bit in a randomly chosen
// clean stable entry. Only parity-intact entries are eligible: a second
// flip in the same word pair would restore even parity and make the
// corruption undetectable, which models a double-bit error the paper's
// single-parity tag RAM cannot catch either.
func (in *Injector) AfterStep(c sim.Cycle) {
	if in.cfg.FlipBit <= 0 || Roll(in.seed, streamFlipGate, uint64(c), 0) >= in.cfg.FlipBit {
		return
	}
	eligible := func(e *metatag.Entry) bool {
		return e.Walker == metatag.NoWalker && !e.Dirty && e.ParityOK()
	}
	// Choose uniformly among the arrays that currently hold an eligible
	// entry (multi-shard topologies register one array per shard; always
	// flipping the first would spare the rest). With a single eligible
	// array the choice is index 0, identical to the historical behavior.
	var cand []int
	counts := make([]int, len(in.tags))
	for ti, a := range in.tags {
		a.ForEach(func(e *metatag.Entry) {
			if eligible(e) {
				counts[ti]++
			}
		})
		if counts[ti] > 0 {
			cand = append(cand, ti)
		}
	}
	if len(cand) > 0 {
		ci := min(int(Roll(in.seed, streamFlipArr, uint64(c), 0)*float64(len(cand))), len(cand)-1)
		ti := cand[ci]
		a, n := in.tags[ti], counts[ti]
		pick := min(int(Roll(in.seed, streamFlipPick, uint64(c), uint64(ti))*float64(n)), n-1)
		word := 0
		if a.Cfg.KeyWords > 1 {
			word = min(int(Roll(in.seed, streamFlipWord, uint64(c), uint64(ti))*float64(a.Cfg.KeyWords)), a.Cfg.KeyWords-1)
		}
		bit := min(int(Roll(in.seed, streamFlipBit, uint64(c), uint64(ti))*64), 63)
		i := 0
		a.ForEach(func(e *metatag.Entry) {
			if !eligible(e) {
				return
			}
			if i == pick {
				a.CorruptKeyBit(e, word, bit)
				in.Flips++
			}
			i++
		})
		return
	}
}
