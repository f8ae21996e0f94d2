// Package mem provides the simulated physical memory image that backs the
// DRAM model. DSAs lay their data structures (hash indices, CSR matrices,
// graph adjacency) out in an Image; the DRAM model serves real words from
// it, so cache walkers genuinely traverse pointers and compare keys rather
// than replaying canned traces.
//
// The image is word (8-byte) granular: the controller datapaths in this
// repository operate on 64-bit words, matching the paper's #Word-wide data
// sectors.
package mem

import "fmt"

// WordBytes is the size of the machine word used throughout the simulator.
const WordBytes = 8

// Image is a sparse simulated physical address space plus a bump allocator.
// The zero address is reserved (used as a null pointer by walkers), so
// allocation starts at a non-zero base.
type Image struct {
	words map[uint64]uint64
	brk   uint64
}

// NewImage returns an empty image whose allocator starts at base 0x1000.
func NewImage() *Image {
	return &Image{words: make(map[uint64]uint64), brk: 0x1000}
}

// Alloc reserves n bytes aligned to align (which must be a power of two and
// at least WordBytes) and returns the base address. The memory is zeroed.
func (im *Image) Alloc(n, align uint64) uint64 {
	if align < WordBytes || align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: bad alignment %d", align))
	}
	base := (im.brk + align - 1) &^ (align - 1)
	im.brk = base + n
	return base
}

// Footprint returns the number of distinct words ever written.
func (im *Image) Footprint() int { return len(im.words) }

// W64 writes a 64-bit word. addr must be word-aligned.
func (im *Image) W64(addr, v uint64) {
	if addr%WordBytes != 0 {
		panic(fmt.Sprintf("mem: unaligned write at %#x", addr))
	}
	if v == 0 {
		delete(im.words, addr)
		return
	}
	im.words[addr] = v
}

// R64 reads a 64-bit word; unwritten memory reads as zero.
func (im *Image) R64(addr uint64) uint64 {
	if addr%WordBytes != 0 {
		panic(fmt.Sprintf("mem: unaligned read at %#x", addr))
	}
	return im.words[addr]
}

// WriteWords writes a slice of words starting at addr.
func (im *Image) WriteWords(addr uint64, ws []uint64) {
	for i, w := range ws {
		im.W64(addr+uint64(i)*WordBytes, w)
	}
}

// ReadWords reads n words starting at addr into a fresh slice.
func (im *Image) ReadWords(addr uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = im.R64(addr + uint64(i)*WordBytes)
	}
	return out
}

// AllocWords reserves and returns the base of an n-word, word-aligned
// region.
func (im *Image) AllocWords(n int) uint64 {
	return im.Alloc(uint64(n)*WordBytes, WordBytes)
}
