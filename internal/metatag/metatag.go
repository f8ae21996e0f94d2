// Package metatag implements the DSA-specific tag array of §4.1 y1/y2.
// Entries are tagged by metadata fields (row/col indices, hash keys,
// vertex ids) rather than addresses; each entry carries the walker state
// used to sequence routines, the active-walker id, and decoupled
// start/count sector pointers into the data RAM.
package metatag

import (
	"fmt"
	"math/bits"

	"xcache/internal/energy"
)

// Key is a meta-tag: up to two 64-bit metadata fields. DSAs with a single
// field (vertex id, row index) leave the second word zero and configure
// KeyWords=1.
type Key [2]uint64

// Mix hashes the key for set selection (splitmix64 over both words).
func (k Key) Mix() uint64 {
	z := k[0] ^ (k[1] * 0x9e3779b97f4a7c15)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// NoWalker marks an entry with no active walker.
const NoWalker = -1

// Entry is one meta-tag slot.
type Entry struct {
	Valid  bool
	Key    Key
	State  int   // program state id (program.StateValid when stable)
	Walker int32 // active walker id, or NoWalker
	Dirty  bool

	// Decoupled sector pointers (§4.1 y6): the entry's data occupies
	// SectorBase..SectorBase+SectorCount-1 in the data RAM.
	SectorBase  int32
	SectorCount int32

	// Parity is the even-parity bit stored over the key words at
	// allocation; a tag-RAM soft error (CorruptKeyBit) leaves it stale so
	// the controller's scrub path can detect and refetch.
	Parity uint8
	// untracked marks an entry whose stored key bits were corrupted after
	// allocation: the duplicate-alloc guard and Live skip it.
	untracked bool

	lru uint64
}

// keyParity returns the even-parity bit over both key words.
func keyParity(k Key) uint8 {
	return uint8((bits.OnesCount64(k[0]) + bits.OnesCount64(k[1])) & 1)
}

// ParityOK reports whether the stored parity matches the stored key.
func (e *Entry) ParityOK() bool { return e.Parity == keyParity(e.Key) }

// Config sets the array geometry.
type Config struct {
	Sets     int
	Ways     int
	KeyWords int // 1 or 2 meta-tag fields compared
	// TagBytes is the stored tag entry footprint charged on miss-path
	// reads/writes; SigBytes is the compact per-lookup signature (see
	// package energy). Zero values default to 12 and 1.
	TagBytes int
	SigBytes int
	// IdentityIndex selects the set by key[0] & (Sets-1) instead of a
	// mixed hash — the natural index for dense meta-tags like GraphPulse
	// vertex ids, where it makes the direct-mapped array collision-free.
	IdentityIndex bool
}

func (c *Config) defaults() {
	if c.TagBytes == 0 {
		c.TagBytes = 12
	}
	if c.SigBytes == 0 {
		c.SigBytes = 1
	}
	if c.KeyWords == 0 {
		c.KeyWords = 1
	}
}

// Stats counts array activity.
type Stats struct {
	Lookups    uint64
	Hits       uint64
	Misses     uint64
	AllocFails uint64 // all ways transient — walker must retry
	Evictions  uint64
	DirtyEvict uint64
}

// Evicted describes a victim removed by Alloc or EvictLRUStable so the
// controller can write back and free its sectors. It is returned by
// value; Valid is false when Alloc took a free way and evicted nothing.
type Evicted struct {
	Valid       bool
	Key         Key
	Dirty       bool
	SectorBase  int32
	SectorCount int32
}

// Array is the meta-tag RAM. Its entries sit in one array, set-major:
// way w of set s is entries[s*Ways+w].
type Array struct {
	Cfg     Config
	entries []Entry
	tick    uint64
	stats   Stats
	Meter   *energy.Counters
}

// New builds an array; sets must be a power of two.
func New(cfg Config, meter *energy.Counters) *Array {
	cfg.defaults()
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic(fmt.Sprintf("metatag: sets must be a positive power of two, got %d", cfg.Sets))
	}
	if cfg.Ways <= 0 {
		panic("metatag: ways must be positive")
	}
	a := &Array{Cfg: cfg, Meter: meter, entries: make([]Entry, cfg.Sets*cfg.Ways)}
	for i := range a.entries {
		a.entries[i].Walker = NoWalker
	}
	return a
}

// Stats returns a copy of lifetime statistics.
func (a *Array) Stats() Stats { return a.stats }

// Capacity returns sets × ways.
func (a *Array) Capacity() int { return a.Cfg.Sets * a.Cfg.Ways }

// norm zeroes key words beyond KeyWords so hashing and equality ignore
// them consistently.
func (a *Array) norm(k Key) Key {
	if a.Cfg.KeyWords < 2 {
		k[1] = 0
	}
	return k
}

// set returns the ways of k's set.
func (a *Array) set(k Key) []Entry {
	var s uint64
	if a.Cfg.IdentityIndex {
		s = k[0] & uint64(a.Cfg.Sets-1)
	} else {
		s = k.Mix() & uint64(a.Cfg.Sets-1)
	}
	w := uint64(a.Cfg.Ways)
	return a.entries[s*w : s*w+w]
}

func (a *Array) match(e *Entry, k Key) bool {
	if !e.Valid || e.Key[0] != k[0] {
		return false
	}
	return a.Cfg.KeyWords < 2 || e.Key[1] == k[1]
}

// Lookup probes for key, charging the per-lookup signature energy and
// counting the access. It returns the entry (hit in any state, including
// transient) or nil. Stable-hit accounting is the caller's job via Touch.
func (a *Array) Lookup(k Key) *Entry {
	e := a.Probe(k)
	a.Account(e != nil)
	return e
}

// Probe searches without charging energy or counting stats — the
// controller front-end uses it to re-examine a queued request it may not
// admit this cycle; Account is called once on actual admission.
func (a *Array) Probe(k Key) *Entry {
	k = a.norm(k)
	set := a.set(k)
	for i := range set {
		if e := &set[i]; a.match(e, k) {
			return e
		}
	}
	return nil
}

// Account records one performed lookup (signature read + hit/miss).
func (a *Array) Account(hit bool) {
	a.stats.Lookups++
	if a.Meter != nil {
		a.Meter.TagBytes += uint64(a.Cfg.SigBytes)
	}
	if hit {
		a.stats.Hits++
	} else {
		a.stats.Misses++
	}
}

// Touch refreshes LRU state for a hit entry.
func (a *Array) Touch(e *Entry) {
	a.tick++
	e.lru = a.tick
}

// Alloc reserves an entry for key in state; the caller guarantees key is
// not already present (hardware invariant: one live tag per key, checked
// here over every way of the key's set, where a live tag for it must
// sit). The victim is the first free way, else the least-recently-used
// stable way; an evicted victim is returned so the controller can clean
// up. ok is false when every way holds a transient entry (walker must
// retry).
func (a *Array) Alloc(k Key, state int, walker int32) (*Entry, Evicted, bool) {
	k = a.norm(k)
	set := a.set(k)
	var free, victim *Entry
	for i := range set {
		e := &set[i]
		if !e.Valid {
			if free == nil {
				free = e
			}
			continue
		}
		if !e.untracked && a.match(e, k) {
			panic(fmt.Sprintf("metatag: duplicate alloc for key %v", k))
		}
		// Only stable entries (no active walker) may be evicted.
		if e.Walker == NoWalker && (victim == nil || e.lru < victim.lru) {
			victim = e
		}
	}
	if free != nil {
		victim = free
	}
	if victim == nil {
		a.stats.AllocFails++
		return nil, Evicted{}, false
	}
	var ev Evicted
	if victim.Valid {
		ev = a.evict(victim)
	}
	if a.Meter != nil {
		a.Meter.TagBytes += uint64(a.Cfg.TagBytes) // full entry write
	}
	a.tick++
	*victim = Entry{Valid: true, Key: k, State: state, Walker: walker,
		Parity: keyParity(k), lru: a.tick}
	return victim, ev, true
}

// Dealloc invalidates an entry (abort / not-found / explicit deallocm).
func (a *Array) Dealloc(e *Entry) {
	if !e.Valid {
		return
	}
	if a.Meter != nil {
		a.Meter.TagBytes += StateBytes // valid-bit/state clear
	}
	*e = Entry{Walker: NoWalker}
}

// CorruptKeyBit flips one stored key bit of a valid entry, modeling a
// tag-RAM soft error. The duplicate-alloc guard and Live skip the entry
// from then on: its stale bits simply occupy the way until the parity
// scrub or an eviction removes them. word must be within the configured
// KeyWords.
func (a *Array) CorruptKeyBit(e *Entry, word, bit int) {
	if !e.Valid {
		panic("metatag: corrupting an invalid entry")
	}
	if word < 0 || word >= a.Cfg.KeyWords || bit < 0 || bit > 63 {
		panic(fmt.Sprintf("metatag: corrupt word %d bit %d out of range", word, bit))
	}
	e.untracked = true
	e.Key[word] ^= 1 << uint(bit)
}

// ScrubSet sweeps key's set for stable entries whose stored parity no
// longer matches their key, invoking fn on each (so the controller can
// free data sectors and count the refetch) before invalidating it. It
// returns the number of entries scrubbed. Entries with an active walker
// are left alone; their walker settles them first.
func (a *Array) ScrubSet(k Key, fn func(*Entry)) int {
	k = a.norm(k)
	set := a.set(k)
	n := 0
	for i := range set {
		e := &set[i]
		if !e.Valid || e.Walker != NoWalker || e.ParityOK() {
			continue
		}
		if fn != nil {
			fn(e)
		}
		a.Dealloc(e)
		n++
	}
	return n
}

// StateBytes is the width of the entry fields a state transition or
// sector-pointer update rewrites (state byte + packed pointers), far
// narrower than the full tag entry written at allocation.
const StateBytes = 2

// Update charges a narrow entry write (state transition or sector-pointer
// update).
func (a *Array) Update() {
	if a.Meter != nil {
		a.Meter.TagBytes += StateBytes
	}
}

// Live returns the number of valid entries whose key is intact (for
// invariant checks).
func (a *Array) Live() int {
	n := 0
	a.ForEach(func(e *Entry) {
		if !e.untracked {
			n++
		}
	})
	return n
}

// ForEach visits every valid entry in set-major order; used by drain
// paths (GraphPulse pops its coalesced events) and tests.
func (a *Array) ForEach(fn func(e *Entry)) {
	for i := range a.entries {
		if a.entries[i].Valid {
			fn(&a.entries[i])
		}
	}
}

// EvictLRUStable removes the least-recently-used stable (Valid,
// walker-free) entry anywhere in the array, returning its eviction record.
// The controller uses it to reclaim data-RAM sectors when a walker's
// allocation cannot be satisfied within its own set.
func (a *Array) EvictLRUStable() (Evicted, bool) {
	var victim *Entry
	for i := range a.entries {
		e := &a.entries[i]
		if !e.Valid || e.Walker != NoWalker || e.State != 1 {
			continue
		}
		if victim == nil || e.lru < victim.lru {
			victim = e
		}
	}
	if victim == nil {
		return Evicted{}, false
	}
	ev := a.evict(victim)
	a.Dealloc(victim)
	return ev, true
}

// evict counts victim's eviction and returns its record.
func (a *Array) evict(victim *Entry) Evicted {
	a.stats.Evictions++
	if victim.Dirty {
		a.stats.DirtyEvict++
	}
	return Evicted{Valid: true, Key: victim.Key, Dirty: victim.Dirty,
		SectorBase: victim.SectorBase, SectorCount: victim.SectorCount}
}
