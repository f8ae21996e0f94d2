package hier_test

import (
	"testing"

	"xcache/internal/exp"
	"xcache/internal/hier"
)

// TestCohShareSnapshotLockstep runs the nine coh-share cells with the
// reference checker beside the directory's own (hier.TrackVerdicts) and
// requires the two to give the same verdict after every cycle of every
// cell.
func TestCohShareSnapshotLockstep(t *testing.T) {
	stop := hier.TrackVerdicts()
	_, err := exp.FigCohShare()
	ls := stop()
	if err != nil {
		t.Fatal(err)
	}
	hier.RequireLockstep(t, ls, 9)
}
