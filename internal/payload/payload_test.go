package payload

import (
	"slices"
	"strings"
	"testing"

	"xcache/internal/sim"
)

func TestInlineAndLent(t *testing.T) {
	var pool Pool
	var short, long Words
	copy(short.Make(&pool, Inline), []uint64{1, 2, 3, 4, 5, 6, 7, 8})
	data := long.Make(&pool, 20)
	for i := range data {
		data[i] = uint64(i)
	}
	if short.buf != nil || long.buf == nil || pool.Lent() != 1 {
		t.Fatalf("8 words lent=%v, 20 words lent=%v, pool lent %d", short.buf != nil, long.buf != nil, pool.Lent())
	}
	if long.Len() != 20 || long.Slice()[19] != 19 || !slices.Equal(short.Slice(), []uint64{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("words: %v %v", short.Slice(), long.Slice())
	}
	buf := long.buf
	long.Release()
	short.Release()
	if long.Len() != 0 || short.Len() != 0 || pool.Lent() != 0 {
		t.Fatalf("after release: lengths %d %d, pool lent %d", long.Len(), short.Len(), pool.Lent())
	}
	// A release recycles the buffer for the next lend of its size class.
	var again Words
	again.Make(&pool, 17)
	if again.buf != buf {
		t.Fatal("a 17-word lend did not reuse the returned 32-word buffer")
	}
	held := again
	again.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("a second release of one buffer did not panic")
		}
	}()
	held.Release()
}

func TestPoisonOverwritesAndRetires(t *testing.T) {
	SetPoison(true)
	defer SetPoison(false)
	var pool Pool
	var p Words
	p.Set(&pool, make([]uint64, 12))
	view, buf := p.Slice(), p.buf
	p.Release()
	for i, w := range view[:cap(view)] {
		if w != PoisonWord {
			t.Fatalf("word %d of a released buffer reads %#x", i, w)
		}
	}
	var q Words
	q.Make(&pool, 12)
	if q.buf == buf {
		t.Fatal("a poisoned buffer was lent again")
	}
}

// holder is a component that lends from pool and holds queued.
type holder struct {
	pool   Pool
	queued []Words
}

func (h *holder) Tick(sim.Cycle)     {}
func (h *holder) PayloadPool() *Pool { return &h.pool }
func (h *holder) HeldPayloads(visit func(*Words)) {
	for i := range h.queued {
		visit(&h.queued[i])
	}
}

func TestAuditLedger(t *testing.T) {
	h := &holder{}
	var kept, lost Words
	kept.Make(&h.pool, 10)
	h.queued = append(h.queued, kept, Of(1, 2))
	if err := Audit([]sim.Component{h}); err != nil {
		t.Fatalf("a queued lent buffer: %v", err)
	}
	lost.Make(&h.pool, 10)
	if err := Audit([]sim.Component{h}); err == nil || !strings.Contains(err.Error(), "neither returned nor queued") {
		t.Fatalf("a lent buffer nobody holds: %v", err)
	}
	lost.Release()
	stale := h.queued[0]
	h.queued[0].Release()
	h.queued[0] = stale
	if err := Audit([]sim.Component{h}); err == nil || !strings.Contains(err.Error(), "returned") {
		t.Fatalf("a queued message holding a returned buffer: %v", err)
	}
}
