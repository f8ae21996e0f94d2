// Package payload carries the data words of a message between
// components under one ownership rule (DESIGN.md §4, decision 6):
//
//   - A payload of up to Inline words travels inline, by value. Copying
//     the message copies the words; nothing aliases them, and nothing
//     has to be returned.
//   - A longer payload is lent from a Pool owned by the component that
//     produced it, and the message carries the lent buffer. The
//     component that consumes the message returns the buffer with
//     Release, once, after its last read. Dropping or replacing a
//     message consumes it too. A component that only passes a message
//     on (a mux, a queue) neither reads nor releases it.
//
// Release of an inline payload only empties it, so a consumer releases
// every payload it consumes without looking at its length. A consumer that
// forgets costs one allocation at the pool's next lend, never a wrong
// value; one that reads a buffer after releasing it is caught by the
// poison hook (SetPoison), and a buffer that is neither returned nor
// queued is caught by the ledger audit (Audit).
package payload

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"xcache/internal/sim"
)

// Inline is the longest payload a message carries by value: one
// eight-word data-RAM block or DRAM burst.
const Inline = 8

// Words is a message's payload: n data words, inline or lent.
type Words struct {
	n      int
	inline [Inline]uint64
	buf    *Buf // lent buffer, nil when the words are inline
}

// Buf is a buffer a Pool lends for a payload longer than Inline words.
type Buf struct {
	w    []uint64
	pool *Pool
	out  bool // lent and not yet returned
}

// Pool is one component's free list of lendable buffers, kept by size
// class (a buffer of class c holds up to 1<<c words). The zero value is
// ready to use; it allocates a buffer only when no returned buffer of
// the class is free.
type Pool struct {
	free [][]*Buf
	lent int
}

// Make sets p, which must hold no lent buffer, to n words and returns
// them for the producer to fill: inline when n ≤ Inline, else in a
// buffer lent from pool. The words are not cleared; the producer writes
// all n.
func (p *Words) Make(pool *Pool, n int) []uint64 {
	p.n = n
	if n <= Inline {
		p.buf = nil
		return p.inline[:n]
	}
	p.buf = pool.get(n)
	return p.buf.w
}

// Of returns an inline payload holding ws, which must be at most Inline
// words long.
func Of(ws ...uint64) Words {
	if len(ws) > Inline {
		panic(fmt.Sprintf("payload: %d words do not fit inline", len(ws)))
	}
	p := Words{n: len(ws)}
	copy(p.inline[:], ws)
	return p
}

// Set copies src into p, lending from pool when src is longer than
// Inline words.
func (p *Words) Set(pool *Pool, src []uint64) {
	copy(p.Make(pool, len(src)), src)
}

// Len returns the number of words p holds.
func (p *Words) Len() int { return p.n }

// Slice returns p's words. It aliases p (or p's lent buffer): it stays
// valid while p is neither changed nor released.
func (p *Words) Slice() []uint64 {
	if p.buf != nil {
		return p.buf.w
	}
	return p.inline[:p.n]
}

// Release returns p's lent buffer to the pool that lent it and empties
// p. Releasing one lent buffer twice panics: the second release would
// hand a buffer another message may already hold back to its pool.
func (p *Words) Release() {
	if b := p.buf; b != nil {
		b.pool.put(b)
		p.buf = nil
	}
	p.n = 0
}

// Lent returns the number of buffers the pool has lent and not yet had
// back.
func (pl *Pool) Lent() int { return pl.lent }

func (pl *Pool) get(n int) *Buf {
	c := bits.Len(uint(n - 1))
	for len(pl.free) <= c {
		pl.free = append(pl.free, nil)
	}
	var b *Buf
	if f := pl.free[c]; len(f) > 0 {
		b = f[len(f)-1]
		pl.free[c] = f[:len(f)-1]
		b.w = b.w[:n]
	} else {
		b = &Buf{w: make([]uint64, n, 1<<c), pool: pl}
	}
	b.out = true
	pl.lent++
	lends.Add(1)
	return b
}

func (pl *Pool) put(b *Buf) {
	if !b.out {
		panic("payload: buffer released twice")
	}
	b.out = false
	pl.lent--
	if poison.Load() {
		// Overwrite the returned words and retire the buffer, so a
		// consumer that reads it after release reads PoisonWord rather
		// than the next message's data.
		w := b.w[:cap(b.w)]
		for i := range w {
			w[i] = PoisonWord
		}
		return
	}
	c := bits.Len(uint(cap(b.w) - 1))
	pl.free[c] = append(pl.free[c], b)
}

// PoisonWord is the value SetPoison writes over every returned buffer.
const PoisonWord = 0xdead_beef_dead_beef

var (
	poison atomic.Bool
	lends  atomic.Uint64
)

// SetPoison turns the poison hook on or off for the whole process. While
// it is on, every released buffer is overwritten with PoisonWord and
// never lent again, so a consumer that reads a payload after releasing
// it reads poison and fails its check. It is a test hook: it changes no
// value a correct consumer reads, only what a faulty one would.
func SetPoison(on bool) { poison.Store(on) }

// Lends returns the number of buffers every pool in the process has
// lent so far, so a test can tell whether its run lent any.
func Lends() uint64 { return lends.Load() }

// Holder is implemented by components that lend payloads from a pool of
// their own or hold payloads in messages between cycles.
type Holder interface {
	// PayloadPool returns the component's pool, or nil when it lends
	// nothing.
	PayloadPool() *Pool
	// HeldPayloads visits every payload the component holds in its
	// internal lists and every payload queued in the queues it pushes
	// into or pops from.
	HeldPayloads(visit func(*Words))
}

// Audit checks the payload ledger of one simulated system, given its
// components: every buffer the Holders' pools have lent is still held
// by a message some Holder has queued, and every buffer a queued
// message holds is lent (not returned). A queue two Holders both visit
// counts once.
func Audit(comps []sim.Component) error {
	pools := map[*Pool]bool{}
	held := map[*Buf]bool{}
	var bad error
	for _, c := range comps {
		h, ok := c.(Holder)
		if !ok {
			continue
		}
		if p := h.PayloadPool(); p != nil {
			pools[p] = true
		}
		h.HeldPayloads(func(p *Words) {
			b := p.buf
			if b == nil {
				return
			}
			if !b.out && bad == nil {
				bad = fmt.Errorf("payload: a queued message holds a returned %d-word buffer", len(b.w))
			}
			held[b] = true
		})
	}
	if bad != nil {
		return bad
	}
	lent := 0
	for p := range pools {
		lent += p.lent
	}
	for b := range held {
		if !pools[b.pool] {
			return fmt.Errorf("payload: a queued %d-word buffer was lent by a pool no component owns", len(b.w))
		}
	}
	if lent != len(held) {
		return fmt.Errorf("payload: %d buffers lent, %d held by queued messages: %d neither returned nor queued",
			lent, len(held), lent-len(held))
	}
	return nil
}
