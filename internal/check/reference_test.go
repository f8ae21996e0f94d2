package check

import (
	"errors"
	"fmt"
	"sync"

	"xcache/internal/sim"
)

// The full-scan checkers this package ran before the kernel kept a move
// counter, per-queue pop stamps and the list of queues each step
// committed. They stay as references: TrackLockstep attaches them beside
// every harness and compares the two after every cycle.

// refInvariants audits every queue after every step, then each
// component's own CheckInvariants.
type refInvariants struct {
	queues   []sim.QueueInfo
	checkers []selfChecker
	err      error
}

func newRefInvariants(k *sim.Kernel) *refInvariants {
	v := &refInvariants{queues: k.Queues()}
	for _, c := range k.Components() {
		if sc, ok := c.(selfChecker); ok {
			v.checkers = append(v.checkers, sc)
		}
	}
	return v
}

// AfterStep implements sim.Observer.
func (v *refInvariants) AfterStep(c sim.Cycle) {
	if v.err != nil {
		return
	}
	for _, q := range v.queues {
		if q.Pushes()-q.Pops() != uint64(q.Len()) {
			v.err = fmt.Errorf("cycle %d: queue %s conservation: %d pushes - %d pops != occupancy %d",
				c, q.Name(), q.Pushes(), q.Pops(), q.Len())
			return
		}
		if q.StagedLen() != 0 {
			v.err = fmt.Errorf("cycle %d: queue %s holds %d staged entries after commit",
				c, q.Name(), q.StagedLen())
			return
		}
		if q.Len() > q.Cap() {
			v.err = fmt.Errorf("cycle %d: queue %s occupancy %d exceeds capacity %d",
				c, q.Name(), q.Len(), q.Cap())
			return
		}
	}
	for _, sc := range v.checkers {
		if err := sc.CheckInvariants(c); err != nil {
			v.err = err
			return
		}
	}
}

// refWatchdog folds every queue's push and pop counters and every
// activity counter into a signature each cycle, and polls every queue's
// pop counter for the cycle it last moved.
type refWatchdog struct {
	window sim.Cycle
	queues []sim.QueueInfo
	acts   []activitySource

	lastSig    uint64
	lastChange sim.Cycle
	lastPops   []uint64
	popCycle   []sim.Cycle
}

func newRefWatchdog(k *sim.Kernel, window int) *refWatchdog {
	w := &refWatchdog{window: sim.Cycle(window), queues: k.Queues()}
	for _, c := range k.Components() {
		if a, ok := c.(activitySource); ok {
			w.acts = append(w.acts, a)
		}
	}
	w.lastPops = make([]uint64, len(w.queues))
	w.popCycle = make([]sim.Cycle, len(w.queues))
	return w
}

func (w *refWatchdog) signature() uint64 {
	var s uint64
	for _, q := range w.queues {
		s += q.Pushes() + q.Pops()
	}
	for _, a := range w.acts {
		s += a.ActivityCount()
	}
	return s
}

// AfterStep implements sim.Observer.
func (w *refWatchdog) AfterStep(c sim.Cycle) {
	if s := w.signature(); s != w.lastSig {
		w.lastSig = s
		w.lastChange = c
	}
	for i, q := range w.queues {
		if p := q.Pops(); p != w.lastPops[i] {
			w.lastPops[i] = p
			w.popCycle[i] = c
		}
	}
}

// frozen reports whether queue i has gone a full window without a pop.
func (w *refWatchdog) frozen(i int, now sim.Cycle) bool {
	return now-w.popCycle[i] >= w.window
}

// Lockstep runs the reference checkers beside one harness and compares
// them after every cycle: the latched invariant error text, the
// watchdog's last-progress cycle, and which non-empty queues a report
// built after the step would mark STUCK.
type Lockstep struct {
	h      *Harness
	inv    *refInvariants
	wd     *refWatchdog
	queues []sim.QueueInfo
	coh    bool // the harness latched a coherence violation; the references run no coherence checker

	// Diverged is the first disagreement, "" while the two agree.
	Diverged string
	// HarnessAt and RefAt are the cycles at which the harness and the
	// reference first latched an invariant error, -1 if never.
	HarnessAt, RefAt int64
	// Cycles counts the steps compared.
	Cycles int
}

func newLockstep(h *Harness) *Lockstep {
	l := &Lockstep{h: h, queues: h.k.Queues(), HarnessAt: -1, RefAt: -1}
	if h.wd != nil {
		l.wd = newRefWatchdog(h.k, h.Cfg.Watchdog)
		h.k.Observe(l.wd)
	}
	if h.inv != nil {
		l.inv = newRefInvariants(h.k)
		h.k.Observe(l.inv)
	}
	h.k.Observe(l)
	return l
}

// AfterStep implements sim.Observer; it runs after both sets of checkers.
func (l *Lockstep) AfterStep(c sim.Cycle) {
	l.Cycles++
	if inv := l.h.inv; inv != nil {
		if inv.err != nil && l.HarnessAt < 0 {
			l.HarnessAt = int64(c)
		}
		if l.inv.err != nil && l.RefAt < 0 {
			l.RefAt = int64(c)
		}
	}
	if l.Diverged != "" {
		return
	}
	if inv := l.h.inv; inv != nil {
		got, want := errText(inv.err), errText(l.inv.err)
		var cv *CoherenceViolation
		switch {
		case l.coh:
		case want == "" && errors.As(inv.err, &cv):
			l.coh = true
		case got != want:
			l.Diverged = fmt.Sprintf("cycle %d: invariant error: harness %q, reference %q", c, got, want)
			return
		}
	}
	if wd := l.h.wd; wd != nil {
		if wd.lastChange != l.wd.lastChange {
			l.Diverged = fmt.Sprintf("cycle %d: last progress: harness %d, reference %d", c, wd.lastChange, l.wd.lastChange)
			return
		}
		now := c + 1 // the cycle a report built after this step carries
		for i, q := range l.queues {
			if q.Len() > 0 && wd.frozen(q, now) != l.wd.frozen(i, now) {
				l.Diverged = fmt.Sprintf("cycle %d: queue %s stuck: harness %t, reference %t",
					c, q.Name(), wd.frozen(q, now), l.wd.frozen(i, now))
				return
			}
		}
	}
}

// RefStuck names the queues the reference watchdog marks STUCK in a
// report built at cycle now.
func (l *Lockstep) RefStuck(now sim.Cycle) []string {
	var names []string
	for i, q := range l.queues {
		if q.Len() > 0 && (l.wd == nil || l.wd.frozen(i, now)) {
			names = append(names, q.Name())
		}
	}
	return names
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TrackLockstep makes every harness that Attach builds, until stop is
// called, run the reference checkers in lockstep. stop returns one
// Lockstep per harness, in attach order. Tests that use it must not run
// in parallel with other tests that attach harnesses.
func TrackLockstep() (stop func() []*Lockstep) {
	var mu sync.Mutex
	var all []*Lockstep
	testHookAttach = func(h *Harness) {
		l := newLockstep(h)
		mu.Lock()
		all = append(all, l)
		mu.Unlock()
	}
	return func() []*Lockstep {
		testHookAttach = nil
		mu.Lock()
		defer mu.Unlock()
		return all
	}
}
