package hier_test

import (
	"testing"

	"xcache/internal/exp"
	"xcache/internal/hier"
)

// TestCohShareSnapshotLockstep runs the nine coh-share cells with the
// reference snapshot beside the directory's (hier.TrackSnapshots) and
// requires the two to agree after every cycle of every cell.
func TestCohShareSnapshotLockstep(t *testing.T) {
	stop := hier.TrackSnapshots()
	_, err := exp.FigCohShare()
	ls := stop()
	if err != nil {
		t.Fatal(err)
	}
	hier.RequireLockstep(t, ls, 9)
}
