// Package dataram implements the banked, sector-organized data RAM of
// §4.1 y6. The RAM is logically an array of fixed-granularity sectors;
// each cached element occupies a contiguous run of sectors (the meta-tag
// entry stores the start pointer and count, like a decoupled sector
// cache). Banking is represented by a per-cycle word bandwidth the
// controller enforces; this package provides storage, allocation and
// energy accounting.
package dataram

import (
	"fmt"

	"xcache/internal/energy"
)

// Config sets the RAM geometry.
type Config struct {
	Sectors        int // total sectors
	WordsPerSector int // #wlen: words striped across banks per sector
	Banks          int // physical banks (= words deliverable per cycle)
}

// Stats counts RAM activity.
type Stats struct {
	AllocFails uint64
}

// RAM is the data store.
type RAM struct {
	Cfg   Config
	words []uint64
	used  []bool // per sector
	free  int
	stats Stats
	Meter *energy.Counters
	// firstFree is a scan hint for the first-fit allocator.
	firstFree int
}

// New builds the RAM.
func New(cfg Config, meter *energy.Counters) *RAM {
	if cfg.Sectors <= 0 || cfg.WordsPerSector <= 0 {
		panic(fmt.Sprintf("dataram: bad geometry %+v", cfg))
	}
	if cfg.Banks <= 0 {
		cfg.Banks = cfg.WordsPerSector
	}
	return &RAM{
		Cfg:   cfg,
		words: make([]uint64, cfg.Sectors*cfg.WordsPerSector),
		used:  make([]bool, cfg.Sectors),
		free:  cfg.Sectors,
		Meter: meter,
	}
}

// Stats returns a copy of lifetime stats.
func (r *RAM) Stats() Stats { return r.stats }

// FreeSectors reports unallocated sectors.
func (r *RAM) FreeSectors() int { return r.free }

// Words returns total word capacity.
func (r *RAM) Words() int { return len(r.words) }

// Bytes returns the RAM capacity in bytes.
func (r *RAM) Bytes() int { return len(r.words) * 8 }

// Alloc reserves a contiguous run of n sectors (first fit) and returns the
// starting sector index. ok is false when no run is available; the walker
// retries after evictions free space.
func (r *RAM) Alloc(n int) (base int32, ok bool) {
	if n <= 0 {
		panic(fmt.Sprintf("dataram: alloc %d sectors", n))
	}
	if n > r.free {
		r.stats.AllocFails++
		return 0, false
	}
	run := 0
	start := 0
	for i := r.firstFree; i < r.Cfg.Sectors; i++ {
		if r.used[i] {
			run = 0
			continue
		}
		if run == 0 {
			start = i
		}
		run++
		if run == n {
			for j := start; j < start+n; j++ {
				r.used[j] = true
			}
			r.free -= n
			if start == r.firstFree {
				r.firstFree = start + n
			}
			return int32(start), true
		}
	}
	// Wrap: retry the scan from 0 once (hint may have skipped freed runs).
	if r.firstFree != 0 {
		r.firstFree = 0
		return r.Alloc(n)
	}
	r.stats.AllocFails++
	return 0, false
}

// Free releases a run allocated by Alloc.
func (r *RAM) Free(base int32, n int32) {
	for i := base; i < base+n; i++ {
		if !r.used[i] {
			panic(fmt.Sprintf("dataram: double free of sector %d", i))
		}
		r.used[i] = false
	}
	r.free += int(n)
	if int(base) < r.firstFree {
		r.firstFree = int(base)
	}
}

// Read returns the word at word index w, charging data-RAM energy.
func (r *RAM) Read(w int32) uint64 {
	if r.Meter != nil {
		r.Meter.DataBytes += 8
	}
	return r.words[w]
}

// Write stores v at word index w, charging data-RAM energy.
func (r *RAM) Write(w int32, v uint64) {
	if r.Meter != nil {
		r.Meter.DataBytes += 8
	}
	r.words[w] = v
}

// SectorWordBase converts a sector index to its first word index.
func (r *RAM) SectorWordBase(sector int32) int32 {
	return sector * int32(r.Cfg.WordsPerSector)
}

// ReadRun reads len(dst) words starting at the first word of sector
// base into dst (hit-path block return), charging energy once per word.
// The caller owns dst: the RAM keeps no reference to it.
func (r *RAM) ReadRun(base int32, dst []uint64) {
	w := r.SectorWordBase(base)
	for i := range dst {
		dst[i] = r.Read(w + int32(i))
	}
}
