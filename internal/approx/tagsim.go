package approx

import (
	"fmt"

	"xcache/internal/ctrl"
	"xcache/internal/metatag"
	"xcache/internal/program"
)

// TagConfig is one alternative meta-tag geometry to evaluate against a
// captured reference trace.
type TagConfig struct {
	Name          string
	Sets          int // must be a positive power of two
	Ways          int // must be positive
	KeyWords      int // 0 defaults to the donor array's 1
	IdentityIndex bool
}

// SoundFor reports whether Engine A's replay model is inside its
// validity envelope for this geometry, given the donor controller's
// walker concurrency. The replay sees the donor's reference stream but
// not the model geometry's own timing: allocation-conflict stalls (every
// way of a set held transiently by concurrent walkers) and the walk
// retries they trigger are invisible to it, and those effects dominate
// the hit rate once associativity drops below ~4 or total capacity
// stops comfortably exceeding the number of concurrent walkers.
// Out-of-envelope geometries should be estimated with Engine B (sampled
// windows of the full simulator), which does model them.
func (c TagConfig) SoundFor(numActive int) bool {
	return c.Ways >= 4 && c.Sets*c.Ways >= 4*numActive
}

// TagResult is Engine A's estimate for one geometry: the hit/miss counts
// the controller front-end would have reported. Exact when the geometry
// equals the donor's; an approximation otherwise (see the package README
// for the two cross-geometry modelling assumptions).
type TagResult struct {
	Name   string
	Sets   int
	Ways   int
	Hits   uint64
	Misses uint64
	// Synthesized counts walks the model fabricated from learned key
	// outcomes because the donor served the access without walking
	// (possible only when the model geometry differs from the donor's);
	// it is a direct measure of how far off-policy the replay ran.
	Synthesized uint64
}

// HitRate returns Hits / (Hits + Misses), or 0 for an empty run.
func (r TagResult) HitRate() float64 {
	if r.Hits+r.Misses == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Hits+r.Misses)
}

// ReplayTags replays the captured reference trace against every config in
// one pass over the event stream and returns per-config hit/miss counts
// in config order. An empty config list is a typed error, not a no-op: a
// zero-configuration Engine A plan is degenerate.
func ReplayTags(cap *Capture, cfgs []TagConfig) ([]TagResult, error) {
	if cap == nil {
		return nil, fmt.Errorf("%w: nil capture", ErrBadConfig)
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("%w: no geometries to evaluate", ErrBadConfig)
	}
	seen := make(map[string]struct{}, len(cfgs))
	models := make([]*tagModel, len(cfgs))
	for i, cfg := range cfgs {
		if cfg.Name == "" {
			return nil, fmt.Errorf("%w: config %d has no name", ErrBadConfig, i)
		}
		if _, dup := seen[cfg.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate config name %q", ErrBadConfig, cfg.Name)
		}
		seen[cfg.Name] = struct{}{}
		if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
			return nil, fmt.Errorf("%w: %s: sets must be a positive power of two, got %d",
				ErrBadConfig, cfg.Name, cfg.Sets)
		}
		if cfg.Ways <= 0 {
			return nil, fmt.Errorf("%w: %s: ways must be positive, got %d",
				ErrBadConfig, cfg.Name, cfg.Ways)
		}
		kw := cfg.KeyWords
		if kw == 0 {
			kw = 1
		}
		models[i] = newTagModel(metatag.Config{
			Sets: cfg.Sets, Ways: cfg.Ways, KeyWords: kw,
			IdentityIndex: cfg.IdentityIndex,
		})
	}
	for _, ev := range cap.Events {
		for _, m := range models {
			m.apply(ev)
		}
	}
	out := make([]TagResult, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = TagResult{
			Name: cfg.Name, Sets: cfg.Sets, Ways: cfg.Ways,
			Hits: models[i].hits, Misses: models[i].misses,
			Synthesized: models[i].synth,
		}
	}
	return out, nil
}

// walk mirrors one in-flight donor walk in the model: the donor's
// Alloc/Settle/Abort/Dealloc events for the key drive the model entry's
// lifecycle. Model walk lifetimes are a subset of donor walk lifetimes
// (the model only opens a walk at a donor spawn or a donor merge), which
// is what makes attributing donor walker events by key unambiguous.
type walk struct {
	entry *metatag.Entry
}

// tagModel replays the donor reference stream against one geometry. The
// donor config replays bit-exactly: events are emitted at the donor's
// array-mutation points in temporal order, metatag.Array supplies the
// identical victim/LRU policy, and the merged-waiter bookkeeping mirrors
// the controller's replay-queue accounting (see classify).
type tagModel struct {
	tags     *metatag.Array
	inflight map[metatag.Key]*walk
	// mergedIDs holds request ids this model merged behind an in-flight
	// walk. The donor replays its own merged waiters after the walk
	// settles; a replayed request is classified here only if this model
	// also merged it, and a replayed request this model already served
	// is skipped (it was counted at first admission).
	mergedIDs map[uint64]struct{}
	// keyCaches is the learned outcome per key: true when a completed
	// donor walk left a stable entry (found), false when it aborted
	// (not-found) or settled entry-less. It lets the model synthesize an
	// instant walk when it misses where the donor hit.
	keyCaches map[metatag.Key]bool

	hits, misses, synth uint64
}

func newTagModel(cfg metatag.Config) *tagModel {
	return &tagModel{
		tags:      metatag.New(cfg, nil),
		inflight:  make(map[metatag.Key]*walk),
		mergedIDs: make(map[uint64]struct{}),
		keyCaches: make(map[metatag.Key]bool),
	}
}

func (m *tagModel) apply(ev ctrl.TraceEvent) {
	switch ev.Kind {
	case ctrl.TraceReq:
		if ev.Replay {
			if _, merged := m.mergedIDs[ev.ID]; !merged {
				return // this model served it at first admission
			}
			delete(m.mergedIDs, ev.ID)
		}
		m.classify(ev)

	case ctrl.TraceAlloc:
		w := m.inflight[ev.Key]
		if w == nil || w.entry != nil || m.tags.Probe(ev.Key) != nil {
			return
		}
		if e, _, ok := m.tags.Alloc(ev.Key, ev.State, 0); ok {
			w.entry = e
		}
		// On failure (all ways transient in this smaller geometry) the
		// walk continues entry-less; Settle retries with a stable entry.

	case ctrl.TraceDealloc:
		if w := m.inflight[ev.Key]; w != nil && w.entry != nil {
			m.tags.Dealloc(w.entry)
			w.entry = nil
		}

	case ctrl.TraceSettle:
		m.keyCaches[ev.Key] = ev.HasEntry
		w := m.inflight[ev.Key]
		if w == nil {
			return
		}
		delete(m.inflight, ev.Key)
		if w.entry != nil {
			w.entry.State = program.StateValid
			w.entry.Walker = metatag.NoWalker
			if ev.Store {
				w.entry.Dirty = true
			}
		} else if ev.HasEntry && m.tags.Probe(ev.Key) == nil {
			// The walk's allocation failed (or the model joined the walk
			// after the donor's allocm); install the settled entry now.
			m.tags.Alloc(ev.Key, program.StateValid, metatag.NoWalker)
		}

	case ctrl.TraceAbort:
		m.keyCaches[ev.Key] = false
		w := m.inflight[ev.Key]
		if w == nil {
			return
		}
		delete(m.inflight, ev.Key)
		if w.entry != nil {
			m.tags.Dealloc(w.entry)
		}

	case ctrl.TraceDrain:
		// Bulk stable-entry removal; transient entries stay, as in the
		// controller's drain loop.
		m.tags.ForEach(func(e *metatag.Entry) {
			if e.Walker == metatag.NoWalker && e.State == program.StateValid {
				m.tags.Dealloc(e)
			}
		})
	}
}

// classify mirrors the controller front-end's admission decision against
// this model's array state. On the donor geometry the decision always
// matches ev.Class; on other geometries ev.Class tells the model what the
// donor did, which decides how a model-side miss is serviced.
func (m *tagModel) classify(ev ctrl.TraceEvent) {
	if e := m.tags.Probe(ev.Key); e != nil {
		if e.Walker == metatag.NoWalker && e.State == program.StateValid {
			m.hits++
			m.tags.Touch(e)
			if ev.Op != ctrl.MetaLoad {
				e.Dirty = true
			}
			return
		}
		// Transient entry: merge behind its walk.
		m.mergedIDs[ev.ID] = struct{}{}
		return
	}
	if _, busy := m.inflight[ev.Key]; busy {
		// Entry-less walk in flight for the key (bitmap merge).
		m.mergedIDs[ev.ID] = struct{}{}
		return
	}
	m.misses++
	if ev.Class == ctrl.ClassMiss {
		// The donor spawns a walk here; its Alloc/Settle/Abort events
		// will drive the model's entry lifecycle.
		m.inflight[ev.Key] = &walk{}
		return
	}
	// The donor served this access without spawning (stable hit, or a
	// merge onto an already-running walk) but this geometry evicted or
	// never kept the entry: synthesize an instant walk from the learned
	// key outcome. A hash-index walk's outcome depends only on the key
	// and the (immutable) index, so the learned outcome is authoritative.
	if caches, known := m.keyCaches[ev.Key]; known {
		m.synth++
		if caches {
			m.tags.Alloc(ev.Key, program.StateValid, metatag.NoWalker)
		}
		return
	}
	// Outcome not learned yet: the donor's walk for this key is still in
	// flight (ev.Class is a merge). Ride it like a spawn — the donor's
	// settle/abort will complete the model walk.
	m.inflight[ev.Key] = &walk{}
}
