package metatag

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xcache/internal/energy"
	"xcache/internal/program"
)

func newArray(sets, ways int) *Array {
	return New(Config{Sets: sets, Ways: ways, KeyWords: 2}, &energy.Counters{})
}

func TestLookupAfterAlloc(t *testing.T) {
	a := newArray(16, 4)
	k := Key{42, 7}
	e, ev, ok := a.Alloc(k, program.StateFirstCustom, 3)
	if !ok || ev.Valid {
		t.Fatalf("alloc: ok=%v ev=%v", ok, ev)
	}
	if e.State != program.StateFirstCustom || e.Walker != 3 {
		t.Fatalf("entry: %+v", e)
	}
	got := a.Lookup(k)
	if got != e {
		t.Fatal("lookup did not find allocated entry")
	}
	if a.Lookup(Key{42, 8}) != nil {
		t.Fatal("lookup matched wrong second key word")
	}
}

func TestKeyWords1IgnoresSecondWord(t *testing.T) {
	a := New(Config{Sets: 16, Ways: 2, KeyWords: 1}, nil)
	a.Alloc(Key{5, 0}, program.StateValid, NoWalker)
	if a.Lookup(Key{5, 99}) == nil {
		t.Fatal("KeyWords=1 must compare only the first word")
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct-mapped-ish: 1 set, 2 ways.
	a := newArray(1, 2)
	e1, _, _ := a.Alloc(Key{1, 0}, program.StateValid, NoWalker)
	e1.SectorBase, e1.SectorCount = 10, 2
	e2, _, _ := a.Alloc(Key{2, 0}, program.StateValid, NoWalker)
	_ = e2
	a.Touch(a.Lookup(Key{1, 0})) // make key 1 MRU
	_, ev, ok := a.Alloc(Key{3, 0}, program.StateValid, NoWalker)
	if !ok || !ev.Valid {
		t.Fatalf("expected eviction, ok=%v ev=%v", ok, ev)
	}
	if ev.Key != (Key{2, 0}) {
		t.Fatalf("evicted %v, want key 2 (LRU)", ev.Key)
	}
	if a.Lookup(Key{1, 0}) == nil || a.Lookup(Key{3, 0}) == nil {
		t.Fatal("survivors missing")
	}
	if a.Lookup(Key{2, 0}) != nil {
		t.Fatal("evicted key still present")
	}
}

func TestEvictionCarriesSectorsAndDirty(t *testing.T) {
	a := newArray(1, 1)
	e, _, _ := a.Alloc(Key{1, 0}, program.StateValid, NoWalker)
	e.SectorBase, e.SectorCount, e.Dirty = 7, 3, true
	_, ev, ok := a.Alloc(Key{2, 0}, program.StateValid, NoWalker)
	if !ok || !ev.Valid || !ev.Dirty || ev.SectorBase != 7 || ev.SectorCount != 3 {
		t.Fatalf("eviction record: %+v ok=%v", ev, ok)
	}
	if a.Stats().DirtyEvict != 1 {
		t.Fatalf("dirty evict stat %d", a.Stats().DirtyEvict)
	}
}

func TestTransientEntriesNotEvicted(t *testing.T) {
	a := newArray(1, 2)
	a.Alloc(Key{1, 0}, program.StateFirstCustom, 0) // walker 0 active
	a.Alloc(Key{2, 0}, program.StateFirstCustom, 1) // walker 1 active
	_, _, ok := a.Alloc(Key{3, 0}, program.StateValid, NoWalker)
	if ok {
		t.Fatal("alloc succeeded with all ways transient")
	}
	if a.Stats().AllocFails != 1 {
		t.Fatalf("alloc fails %d", a.Stats().AllocFails)
	}
	// Settle one walker; alloc must now succeed, evicting it.
	e := a.Lookup(Key{1, 0})
	e.State = program.StateValid
	e.Walker = NoWalker
	_, ev, ok := a.Alloc(Key{3, 0}, program.StateValid, NoWalker)
	if !ok || !ev.Valid || ev.Key != (Key{1, 0}) {
		t.Fatalf("post-settle alloc: ok=%v ev=%+v", ok, ev)
	}
}

func TestDealloc(t *testing.T) {
	a := newArray(4, 2)
	e, _, _ := a.Alloc(Key{9, 9}, program.StateFirstCustom, 0)
	a.Dealloc(e)
	if a.Lookup(Key{9, 9}) != nil {
		t.Fatal("dealloc left entry visible")
	}
	if a.Live() != 0 {
		t.Fatalf("live=%d", a.Live())
	}
}

func TestDuplicateAllocPanics(t *testing.T) {
	a := newArray(4, 2)
	a.Alloc(Key{1, 1}, program.StateValid, NoWalker)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate alloc")
		}
	}()
	a.Alloc(Key{1, 1}, program.StateValid, NoWalker)
}

// TestDuplicateAllocPanicsBehindFreeWay: the guard sees every way of the
// set, not only those before the first free one.
func TestDuplicateAllocPanicsBehindFreeWay(t *testing.T) {
	a := newArray(1, 2)
	ea, _, _ := a.Alloc(Key{1, 0}, program.StateValid, NoWalker) // way 0
	a.Alloc(Key{2, 0}, program.StateValid, NoWalker)             // way 1
	a.Dealloc(ea)                                                // way 0 free again
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate alloc of a key live behind a free way did not panic")
		}
	}()
	a.Alloc(Key{2, 0}, program.StateValid, NoWalker)
}

func TestEnergyAccounting(t *testing.T) {
	m := &energy.Counters{}
	a := New(Config{Sets: 4, Ways: 2, SigBytes: 2, TagBytes: 10}, m)
	a.Lookup(Key{1, 0})
	if m.TagBytes != 2 {
		t.Fatalf("lookup charged %d tag bytes, want 2", m.TagBytes)
	}
	a.Alloc(Key{1, 0}, program.StateValid, NoWalker)
	if m.TagBytes != 12 {
		t.Fatalf("alloc charged to %d, want 12", m.TagBytes)
	}
	a.Update()
	if m.TagBytes != 12+StateBytes {
		t.Fatalf("update charged to %d, want %d (narrow state write)", m.TagBytes, 12+StateBytes)
	}
}

// Property: under random alloc/dealloc/lookup sequences, (1) live count
// never exceeds capacity, (2) every key reported live is findable, (3) no
// key is present twice (Alloc would panic), (4) hits+misses == lookups.
func TestArrayInvariantsProperty(t *testing.T) {
	f := func(seed int64, ops uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		a := newArray(8, 2)
		live := map[Key]*Entry{}
		for i := 0; i < int(ops%500)+50; i++ {
			k := Key{uint64(rng.Intn(40)), 0}
			switch rng.Intn(3) {
			case 0: // alloc if absent
				if _, ok := live[k]; ok {
					continue
				}
				e, ev, ok := a.Alloc(k, program.StateValid, NoWalker)
				if !ok {
					return false // no transient entries here; must succeed
				}
				if ev.Valid {
					delete(live, ev.Key)
				}
				live[k] = e
			case 1: // dealloc if present
				if e, ok := live[k]; ok {
					a.Dealloc(e)
					delete(live, k)
				}
			case 2: // lookup must agree with model
				got := a.Lookup(k)
				_, want := live[k]
				if (got != nil) != want {
					return false
				}
			}
			if a.Live() != len(live) || a.Live() > a.Capacity() {
				return false
			}
		}
		st := a.Stats()
		return st.Hits+st.Misses == st.Lookups
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachVisitsAllLive(t *testing.T) {
	a := newArray(8, 4)
	for i := 0; i < 20; i++ {
		a.Alloc(Key{uint64(i), 0}, program.StateValid, NoWalker)
	}
	n := 0
	a.ForEach(func(e *Entry) { n++ })
	if n != a.Live() {
		t.Fatalf("ForEach visited %d, live %d", n, a.Live())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{{Sets: 3, Ways: 1}, {Sets: 0, Ways: 1}, {Sets: 4, Ways: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cfg %+v: expected panic", cfg)
				}
			}()
			New(cfg, nil)
		}()
	}
}

func TestParityStoredOnAlloc(t *testing.T) {
	a := newArray(4, 2)
	e, _, ok := a.Alloc(Key{0b1011, 0b1}, 0, 3)
	if !ok {
		t.Fatal("alloc failed")
	}
	if !e.ParityOK() {
		t.Fatal("fresh entry fails its own parity")
	}
	if e.Parity != 0 { // 4 set bits → even parity bit 0
		t.Fatalf("parity bit %d, want 0", e.Parity)
	}
}

func TestCorruptKeyBitDetectedAndScrubbed(t *testing.T) {
	a := newArray(4, 2)
	k := Key{42, 7}
	e, _, _ := a.Alloc(k, 1, NoWalker)
	e.Walker = NoWalker
	a.CorruptKeyBit(e, 0, 5)
	if e.ParityOK() {
		t.Fatal("single-bit corruption passed the parity check")
	}
	// The scrub must find the entry via the original key's set, hand it
	// to the callback, and invalidate it.
	var scrubbed []Key
	n := a.ScrubSet(k, func(v *Entry) { scrubbed = append(scrubbed, v.Key) })
	if n != 1 || len(scrubbed) != 1 {
		t.Fatalf("scrubbed %d entries, want 1", n)
	}
	if e.Valid {
		t.Fatal("scrubbed entry still valid")
	}
	// The key is allocatable again: the duplicate-alloc guard released it.
	if _, _, ok := a.Alloc(k, 1, NoWalker); !ok {
		t.Fatal("re-alloc after scrub failed")
	}
}

func TestCorruptedVictimKeepsDuplicateGuard(t *testing.T) {
	a := New(Config{Sets: 1, Ways: 2, KeyWords: 1}, nil)
	e, _, _ := a.Alloc(Key{9, 0}, 1, NoWalker)
	a.CorruptKeyBit(e, 0, 0) // stored key bits become 8
	// Key 8 is genuinely live in the other way.
	if _, _, ok := a.Alloc(Key{8, 0}, 1, NoWalker); !ok {
		t.Fatal("alloc of key 8 failed")
	}
	// Evicting the corrupted entry (the LRU victim) must not remove key
	// 8's duplicate-guard record just because the corrupted bits read 8.
	_, ev, ok := a.Alloc(Key{5, 0}, 1, NoWalker)
	if !ok || !ev.Valid || ev.Key[0] != 8 {
		t.Fatalf("expected the corrupted entry evicted, got ev=%+v ok=%v", ev, ok)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate alloc of a live key did not panic: guard was poisoned by the corrupted victim")
		}
	}()
	a.Alloc(Key{8, 0}, 1, NoWalker)
}

func TestScrubSkipsActiveWalkersAndCleanEntries(t *testing.T) {
	a := newArray(1, 4) // one set: every key lands together
	clean, _, _ := a.Alloc(Key{1, 0}, 1, NoWalker)
	walked, _, _ := a.Alloc(Key{2, 0}, 0, 7) // active walker
	a.CorruptKeyBit(walked, 0, 3)
	if n := a.ScrubSet(Key{1, 0}, nil); n != 0 {
		t.Fatalf("scrub removed %d entries; clean and walker-held entries must survive", n)
	}
	if !clean.Valid || !walked.Valid {
		t.Fatal("scrub invalidated a protected entry")
	}
	// Once the walker releases it, the corrupted entry is fair game.
	walked.Walker = NoWalker
	if n := a.ScrubSet(Key{1, 0}, nil); n != 1 {
		t.Fatalf("scrub after walker release removed %d, want 1", n)
	}
}

func TestCorruptKeyBitRangeChecks(t *testing.T) {
	a := New(Config{Sets: 1, Ways: 1, KeyWords: 1}, nil)
	e, _, _ := a.Alloc(Key{1, 0}, 1, NoWalker)
	for _, bad := range [][2]int{{1, 0}, {-1, 0}, {0, 64}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("CorruptKeyBit(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			a.CorruptKeyBit(e, bad[0], bad[1])
		}()
	}
}

// Allocation gate: a probe, hit or miss, allocates nothing.
func TestProbeAllocatesNothing(t *testing.T) {
	a := newArray(64, 4)
	a.Alloc(Key{1, 2}, program.StateValid, NoWalker)
	if got := testing.AllocsPerRun(100, func() {
		a.Probe(Key{1, 2})
		a.Probe(Key{3, 4})
	}); got != 0 {
		t.Fatalf("Probe: %v allocations, want 0", got)
	}
}

// Allocation gate: an Alloc that evicts a victim allocates nothing; the
// victim comes back by value.
func TestAllocWithEvictionAllocatesNothing(t *testing.T) {
	a := newArray(1, 2)
	next := uint64(0)
	for ; next < 2; next++ {
		a.Alloc(Key{next, 0}, program.StateValid, NoWalker)
	}
	evicted := 0
	if got := testing.AllocsPerRun(100, func() {
		if _, ev, ok := a.Alloc(Key{next, 0}, program.StateValid, NoWalker); ok && ev.Valid {
			evicted++
		}
		next++
	}); got != 0 {
		t.Fatalf("Alloc with eviction: %v allocations, want 0", got)
	}
	if evicted != 101 {
		t.Fatalf("%d of 101 allocs evicted, want every one", evicted)
	}
}
