package ctrl

// Allocation gates for the controller's steady state.

import (
	"testing"

	"xcache/internal/metatag"
)

// TestHitPathAllocatesNothing: a load, a store and a merge that hit a
// resident key allocate nothing, on both executors. The load's payload
// travels inline in the response.
func TestHitPathAllocatesNothing(t *testing.T) {
	for _, exec := range []ExecPath{ExecInterp, ExecFast} {
		r := newRig(t, Config{Exec: exec}, arrayWalkSpec(), defaultTagCfg(), defaultDataCfg())
		r.fillArray(16)
		r.issue(MetaLoad, 3, 0)
		r.await(1) // key 3 is resident from here on
		hits := r.c.Stats().Hits
		allocs := testing.AllocsPerRun(100, func() {
			for i, op := range []MetaOp{MetaLoad, MetaStore, MetaStoreMerge} {
				r.c.ReqQ.MustPush(MetaReq{ID: uint64(i), Op: op, Key: metatag.Key{3, 0}, Payload: 1, Issued: r.k.Cycle()})
			}
			for n := 0; n < 3; {
				r.k.Step()
				for resp, ok := r.c.RespQ.Pop(); ok; resp, ok = r.c.RespQ.Pop() {
					resp.Data.Release()
					n++
				}
			}
		})
		if allocs != 0 {
			t.Errorf("exec %d: a load, a store and a merge hit made %v allocations, want 0", exec, allocs)
		}
		if got := r.c.Stats().Hits - hits; got != 101*3 {
			t.Errorf("exec %d: %d hits, want every request to hit", exec, got)
		}
	}
}
