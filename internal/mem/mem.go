// Package mem provides the simulated physical memory image that backs the
// DRAM model. DSAs lay their data structures (hash indices, CSR matrices,
// graph adjacency) out in an Image; the DRAM model serves real words from
// it, so cache walkers genuinely traverse pointers and compare keys rather
// than replaying canned traces.
//
// The image is word (8-byte) granular: the controller datapaths in this
// repository operate on 64-bit words, matching the paper's #Word-wide data
// sectors.
//
// Layout: a page table of 4 KiB pages (512 words), indexed by
// addr >> 12, covers the bump-allocated range [0, brk). Each page is
// allocated on the first non-zero write to it, so unwritten and all-zero
// regions cost one nil pointer per page. Words beyond the page table
// (written above the allocator's break) live in a fallback map, which
// holds only non-zero words; an Alloc that extends the table over such a
// word moves it into its page.
package mem

import "fmt"

// WordBytes is the size of the machine word used throughout the simulator.
const WordBytes = 8

const (
	pageShift = 12
	pageBytes = 1 << pageShift
	pageWords = pageBytes / WordBytes
)

type page [pageWords]uint64

// Image is a sparse simulated physical address space plus a bump allocator.
// The zero address is reserved (used as a null pointer by walkers), so
// allocation starts at a non-zero base.
type Image struct {
	pages []*page           // covers [0, len(pages)*pageBytes) ⊇ [0, brk)
	far   map[uint64]uint64 // non-zero words beyond the page table
	brk   uint64
}

// NewImage returns an empty image whose allocator starts at base 0x1000.
func NewImage() *Image {
	return &Image{brk: 0x1000}
}

// Alloc reserves n bytes aligned to align (which must be a power of two and
// at least WordBytes) and returns the base address. The memory is zeroed.
func (im *Image) Alloc(n, align uint64) uint64 {
	if align < WordBytes || align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: bad alignment %d", align))
	}
	base := (im.brk + align - 1) &^ (align - 1)
	im.brk = base + n
	im.growPages()
	return base
}

// growPages extends the page table to cover [0, brk) and moves every word
// the fallback map holds in the newly covered range into its page.
func (im *Image) growPages() {
	need := (im.brk + pageBytes - 1) >> pageShift
	if need <= uint64(len(im.pages)) {
		return
	}
	for uint64(len(im.pages)) < need {
		im.pages = append(im.pages, nil)
	}
	for addr, v := range im.far {
		if addr>>pageShift < need {
			delete(im.far, addr)
			im.W64(addr, v)
		}
	}
}

// W64 writes a 64-bit word. addr must be word-aligned.
func (im *Image) W64(addr, v uint64) {
	if addr%WordBytes != 0 {
		panic(fmt.Sprintf("mem: unaligned write at %#x", addr))
	}
	if pi := addr >> pageShift; pi < uint64(len(im.pages)) {
		pg := im.pages[pi]
		if pg == nil {
			if v == 0 {
				return
			}
			pg = new(page)
			im.pages[pi] = pg
		}
		pg[(addr&(pageBytes-1))/WordBytes] = v
		return
	}
	if v == 0 {
		delete(im.far, addr)
		return
	}
	if im.far == nil {
		im.far = make(map[uint64]uint64)
	}
	im.far[addr] = v
}

// R64 reads a 64-bit word; unwritten memory reads as zero.
func (im *Image) R64(addr uint64) uint64 {
	if addr%WordBytes != 0 {
		panic(fmt.Sprintf("mem: unaligned read at %#x", addr))
	}
	if pi := addr >> pageShift; pi < uint64(len(im.pages)) {
		if pg := im.pages[pi]; pg != nil {
			return pg[(addr&(pageBytes-1))/WordBytes]
		}
		return 0
	}
	return im.far[addr]
}

// WriteWords writes a slice of words starting at addr.
func (im *Image) WriteWords(addr uint64, ws []uint64) {
	for i, w := range ws {
		im.W64(addr+uint64(i)*WordBytes, w)
	}
}

// ReadWords reads len(dst) words starting at addr into dst.
func (im *Image) ReadWords(addr uint64, dst []uint64) {
	for i := range dst {
		dst[i] = im.R64(addr + uint64(i)*WordBytes)
	}
}

// AllocWords reserves and returns the base of an n-word, word-aligned
// region.
func (im *Image) AllocWords(n int) uint64 {
	return im.Alloc(uint64(n)*WordBytes, WordBytes)
}
