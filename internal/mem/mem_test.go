package mem

import (
	"testing"
	"testing/quick"
)

func TestAllocAlignmentAndDisjointness(t *testing.T) {
	im := NewImage()
	a := im.Alloc(24, 8)
	b := im.Alloc(100, 64)
	c := im.Alloc(8, 8)
	if a%8 != 0 || b%64 != 0 || c%8 != 0 {
		t.Fatalf("misaligned allocations: %#x %#x %#x", a, b, c)
	}
	if a == 0 {
		t.Fatal("allocation at null address")
	}
	if b < a+24 || c < b+100 {
		t.Fatalf("overlapping allocations: a=%#x b=%#x c=%#x", a, b, c)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	im := NewImage()
	base := im.AllocWords(4)
	im.WriteWords(base, []uint64{1, 0, 3, ^uint64(0)})
	got := make([]uint64, 4)
	im.ReadWords(base, got)
	want := []uint64{1, 0, 3, ^uint64(0)}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("word %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	im := NewImage()
	base := im.AllocWords(2)
	if im.R64(base) != 0 || im.R64(base+8) != 0 {
		t.Fatal("fresh allocation not zeroed")
	}
}

func TestUnalignedAccessPanics(t *testing.T) {
	im := NewImage()
	for _, f := range []func(){
		func() { im.R64(3) },
		func() { im.W64(5, 1) },
		func() { im.Alloc(8, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// pagesInUse counts the allocated pages plus the fallback map's words.
func pagesInUse(im *Image) int {
	n := len(im.far)
	for _, pg := range im.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

func TestZeroWritesDoNotGrowFootprint(t *testing.T) {
	im := NewImage()
	base := im.AllocWords(2 * pageWords)
	for i := 0; i < 2*pageWords; i++ {
		im.W64(base+uint64(i)*8, 0)
	}
	if n := pagesInUse(im); n != 0 {
		t.Fatalf("%d pages after zero writes", n)
	}
	im.W64(base, 9)
	if n := pagesInUse(im); n != 1 {
		t.Fatalf("%d pages after one non-zero write, want 1", n)
	}
	im.W64(base, 0)
	if im.R64(base) != 0 {
		t.Fatal("overwrite with zero did not read back zero")
	}
	// Beyond the page table a zero write deletes the word.
	far := im.brk + 64*pageBytes
	im.W64(far, 9)
	im.W64(far, 0)
	if len(im.far) != 0 {
		t.Fatalf("fallback map holds %d words after overwrite with zero", len(im.far))
	}
}

// A word written above the allocator's break lives in the fallback map
// until an Alloc covers it; it then moves into its page and reads back.
func TestAllocCoversFarWord(t *testing.T) {
	im := NewImage()
	im.AllocWords(4)
	above := im.brk + 3*pageBytes + 8
	im.W64(above, 42)
	if len(im.far) != 1 {
		t.Fatalf("word above the break not in the fallback map: %d entries", len(im.far))
	}
	im.AllocWords(4 * pageWords)
	if above>>pageShift >= uint64(len(im.pages)) {
		t.Fatalf("Alloc did not extend the page table over %#x", above)
	}
	if len(im.far) != 0 {
		t.Fatalf("covered word still in the fallback map: %d entries", len(im.far))
	}
	if got := im.R64(above); got != 42 {
		t.Fatalf("covered word reads %d, want 42", got)
	}
}

func TestFarAddressRoundTrip(t *testing.T) {
	im := NewImage()
	im.AllocWords(16)
	for _, addr := range []uint64{1<<63 - 8, 1 << 63, 1<<63 + 8, ^uint64(7)} {
		im.W64(addr, addr^1)
		if got := im.R64(addr); got != addr^1 {
			t.Fatalf("%#x reads %#x, want %#x", addr, got, addr^1)
		}
	}
	if n := len(im.far); n != 4 {
		t.Fatalf("fallback map holds %d words, want 4", n)
	}
}

func TestUnwrittenPageReadAllocatesNothing(t *testing.T) {
	im := NewImage()
	base := im.AllocWords(4 * pageWords)
	im.W64(base, 1)
	unwritten := base + 2*pageBytes
	var got uint64
	allocs := testing.AllocsPerRun(100, func() { got |= im.R64(unwritten) })
	if got != 0 || allocs != 0 {
		t.Fatalf("read of a never-written page: value %d, %v allocs", got, allocs)
	}
	if n := pagesInUse(im); n != 1 {
		t.Fatalf("%d pages after reading a never-written page, want 1", n)
	}
}

// Allocation gate: reads and writes of a page that already exists
// allocate nothing.
func TestPagedAccessAllocatesNothing(t *testing.T) {
	im := NewImage()
	base := im.AllocWords(pageWords)
	im.W64(base, 1)
	var v uint64
	allocs := testing.AllocsPerRun(100, func() {
		im.W64(base+8, v+1)
		v = im.R64(base + 8)
	})
	if allocs != 0 {
		t.Fatalf("R64+W64 on an existing page: %v allocs, want 0", allocs)
	}
}

// Property: any written word reads back, at any word-aligned address,
// both beyond the page table (fallback map) and inside it (paged), and
// its neighbour stays zero.
func TestWriteReadProperty(t *testing.T) {
	f := func(slot uint16, v uint64, paged bool) bool {
		im := NewImage()
		var base uint64
		if paged {
			base = im.AllocWords(1 << 16)
		}
		addr := base + uint64(slot)*WordBytes
		im.W64(addr, v)
		return im.R64(addr) == v && im.R64(addr+WordBytes) == 0 && (len(im.far) == 0) == (paged || v == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
