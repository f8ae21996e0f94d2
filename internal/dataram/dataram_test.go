package dataram

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xcache/internal/energy"
)

func TestAllocFreeBasic(t *testing.T) {
	r := New(Config{Sectors: 8, WordsPerSector: 4}, nil)
	a, ok := r.Alloc(3)
	if !ok {
		t.Fatal("alloc failed")
	}
	b, ok := r.Alloc(5)
	if !ok {
		t.Fatal("second alloc failed")
	}
	if a == b {
		t.Fatal("overlapping allocations")
	}
	if _, ok := r.Alloc(1); ok {
		t.Fatal("alloc succeeded on full RAM")
	}
	r.Free(a, 3)
	if r.FreeSectors() != 3 {
		t.Fatalf("free sectors %d", r.FreeSectors())
	}
	if _, ok := r.Alloc(3); !ok {
		t.Fatal("alloc after free failed")
	}
}

func TestContiguityAfterFragmentation(t *testing.T) {
	r := New(Config{Sectors: 10, WordsPerSector: 1}, nil)
	a, _ := r.Alloc(3) // 0..2
	b, _ := r.Alloc(3) // 3..5
	c, _ := r.Alloc(3) // 6..8
	_ = b
	r.Free(a, 3)
	r.Free(c, 3)
	// 7 sectors free but max contiguous run is 4 (6..9): a 5-run must fail.
	if _, ok := r.Alloc(5); ok {
		t.Fatal("allocated non-contiguous run")
	}
	if base, ok := r.Alloc(4); !ok || base != 6 {
		t.Fatalf("4-run: base=%d ok=%v", base, ok)
	}
}

func TestReadWriteWords(t *testing.T) {
	r := New(Config{Sectors: 4, WordsPerSector: 4}, nil)
	base, _ := r.Alloc(2)
	w := r.SectorWordBase(base)
	for i := int32(0); i < 8; i++ {
		r.Write(w+i, uint64(100+i))
	}
	run := make([]uint64, 8)
	r.ReadRun(base, run)
	for i, v := range run {
		if v != uint64(100+i) {
			t.Fatalf("word %d: %d", i, v)
		}
	}
}

func TestEnergyCharged(t *testing.T) {
	m := &energy.Counters{}
	r := New(Config{Sectors: 4, WordsPerSector: 2}, m)
	base, _ := r.Alloc(1)
	r.Write(r.SectorWordBase(base), 1)
	r.Read(r.SectorWordBase(base))
	if m.DataBytes != 16 {
		t.Fatalf("data bytes %d want 16", m.DataBytes)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	r := New(Config{Sectors: 4, WordsPerSector: 1}, nil)
	a, _ := r.Alloc(2)
	r.Free(a, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Free(a, 2)
}

// Property: free-sector conservation and no overlap under random
// alloc/free traffic.
func TestAllocatorConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const sectors = 64
		r := New(Config{Sectors: sectors, WordsPerSector: 2}, nil)
		type run struct{ base, n int32 }
		var runs []run
		owned := map[int32]bool{}
		total := 0
		for i := 0; i < 300; i++ {
			if rng.Intn(2) == 0 {
				n := int32(rng.Intn(6) + 1)
				base, ok := r.Alloc(int(n))
				if !ok {
					continue
				}
				for s := base; s < base+n; s++ {
					if owned[s] {
						return false // overlap
					}
					owned[s] = true
				}
				runs = append(runs, run{base, n})
				total += int(n)
			} else if len(runs) > 0 {
				i := rng.Intn(len(runs))
				rr := runs[i]
				r.Free(rr.base, rr.n)
				for s := rr.base; s < rr.base+rr.n; s++ {
					delete(owned, s)
				}
				runs[i] = runs[len(runs)-1]
				runs = runs[:len(runs)-1]
				total -= int(rr.n)
			}
			if r.FreeSectors() != sectors-total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFullDrainThenReuse(t *testing.T) {
	r := New(Config{Sectors: 16, WordsPerSector: 1}, nil)
	var bases []int32
	for i := 0; i < 16; i++ {
		b, ok := r.Alloc(1)
		if !ok {
			t.Fatal("alloc failed before capacity")
		}
		bases = append(bases, b)
	}
	for _, b := range bases {
		r.Free(b, 1)
	}
	if b, ok := r.Alloc(16); !ok || b != 0 {
		t.Fatalf("whole-RAM alloc after drain: base=%d ok=%v", b, ok)
	}
}
