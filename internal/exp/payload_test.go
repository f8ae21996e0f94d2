package exp

import (
	"testing"

	"xcache/internal/payload"
)

// TestSweepPoisonedPayloads runs the Fig 14 cells at testScale under the
// check harness with the payload poison hook on, and compares each
// result with the plain run's. A consumer that read a payload after
// releasing it would read poison and change a count or fail its
// functional check. The harness's end-of-run audit checks the payload
// ledger of every cell: each lent buffer is back with its pool or still
// held by a queued message.
func TestSweepPoisonedPayloads(t *testing.T) {
	plain := sweep(t)
	payload.SetPoison(true)
	defer payload.SetPoison(false)
	lends := payload.Lends()
	for i, s := range SweepSpecs(testScale) {
		s.Check = true
		got, err := s.Execute()
		if err != nil {
			t.Fatalf("%s: %v", s.Key(), err)
		}
		if want := plain.Results[i]; got != want {
			t.Errorf("%s: poisoned checked run differs from the plain run (checked %v, want %v)\n got %+v\nwant %+v",
				s.Key(), got.Checked, want.Checked, got, want)
		}
	}
	// GraphPulse's adjacency bursts and SpGEMM's rows are longer than
	// payload.Inline words, so the sweep must have lent buffers.
	if payload.Lends() == lends {
		t.Error("the sweep lent no payload buffer, so poison tested nothing")
	}
}
