package hier

import (
	"fmt"

	"xcache/internal/check"
	"xcache/internal/metatag"
	"xcache/internal/sim"
)

// ScriptOp is one step of a per-port coherence script. Scripts run
// closed-loop: each port waits for its response before issuing the next
// op, so a script is a deterministic cross-controller interleaving — the
// substrate of the litmus suite and the coherence fuzz rigs.
type ScriptOp struct {
	Op      CohOp
	Key     uint64
	Payload uint64
	Poll    bool   // reissue the load until its value equals Want
	Want    uint64 // the value a Poll waits for
}

// Ld, St, Merge, and Poll build script steps.
func Ld(key uint64) ScriptOp            { return ScriptOp{Op: OpLoad, Key: key} }
func St(key, val uint64) ScriptOp       { return ScriptOp{Op: OpStore, Key: key, Payload: val} }
func Merge(key, val uint64) ScriptOp    { return ScriptOp{Op: OpMerge, Key: key, Payload: val} }
func Poll(key, want uint64) ScriptOp    { return ScriptOp{Op: OpLoad, Key: key, Poll: true, Want: want} }
func MergeMin(key, val uint64) ScriptOp { return ScriptOp{Op: OpMergeMin, Key: key, Payload: val} }

type scriptPort struct {
	ops      []ScriptOp
	idx      int
	seq      uint64
	waitID   uint64
	gapUntil sim.Cycle
	results  []uint64
}

// RunScripts drives one script per port to completion (plus a quiesce
// tail), under the harness's supervision when h is non-nil. It returns
// each port's response values in script order; a poll records only its
// final, matching value. A key outside the element array fails before
// the first cycle. Any latched coherence violation, invariant failure,
// or L2 trap aborts with an error. Under a harness, a watchdog
// stall, a queue overflow and a blown cycle budget abort with a
// *check.Failure of kind FailStall, FailOverflow and FailBudget.
func RunScripts(s *CohSystem, h *check.Harness, scripts [][]ScriptOp, maxCycles int) ([][]uint64, error) {
	if len(scripts) > len(s.Ports) {
		return nil, fmt.Errorf("hier: %d scripts for %d ports", len(scripts), len(s.Ports))
	}
	for pi, ops := range scripts {
		for i, op := range ops {
			if op.Key >= uint64(s.Cfg.NumKeys) {
				return nil, fmt.Errorf("hier: port %d op %d: key %d outside the %d-key element array",
					pi, i, op.Key, s.Cfg.NumKeys)
			}
		}
	}
	ports := make([]*scriptPort, len(scripts))
	for i, ops := range scripts {
		ports[i] = &scriptPort{ops: ops}
	}
	results := func() [][]uint64 {
		out := make([][]uint64, len(ports))
		for i, p := range ports {
			out[i] = p.results
		}
		return out
	}
	fail := func(err error) ([][]uint64, error) { return results(), err }

	for i := 0; i < maxCycles; i++ {
		cy := s.K.Cycle()
		done := true
		for pi, p := range ports {
			l1 := s.Ports[pi]
			for {
				resp, ok := l1.RespQ.Pop()
				if !ok {
					break
				}
				if resp.ID != p.waitID {
					return fail(fmt.Errorf("hier: port %d got response id %d, waiting for %d", pi, resp.ID, p.waitID))
				}
				op := p.ops[p.idx]
				p.waitID = 0
				if op.Poll && resp.Value != op.Want {
					p.gapUntil = cy + 4 // retry the poll shortly
					continue
				}
				p.results = append(p.results, resp.Value)
				p.idx++
			}
			if p.idx < len(p.ops) {
				done = false
				if p.waitID == 0 && cy >= p.gapUntil && l1.ReqQ.CanPush() {
					op := p.ops[p.idx]
					p.seq++
					p.waitID = uint64(pi+1)<<32 | p.seq
					l1.ReqQ.MustPush(CohReq{ID: p.waitID, Op: op.Op,
						Key: metatag.Key{op.Key, 0}, Payload: op.Payload})
				}
			} else if p.waitID != 0 {
				done = false
			}
		}
		if done && s.Idle() {
			if err := h.Audit(); err != nil {
				return fail(err)
			}
			return results(), nil
		}
		if h != nil {
			if err := h.Step(); err != nil {
				return fail(h.Report(check.FailOverflow, fmt.Sprintf("queue overflow: %v", err)).Failure())
			}
			if err := h.Err(); err != nil {
				return fail(err)
			}
		} else {
			s.K.Step()
			if err := s.Err(); err != nil {
				return fail(err)
			}
		}
		if t := s.L2.Ctrl.Trap(); t != nil {
			return fail(fmt.Errorf("hier: L2 trapped: %w", t))
		}
		if h.Stalled(s.K.Cycle()) {
			return fail(h.Report(check.FailStall, fmt.Sprintf("no forward progress for %d cycles", h.Cfg.Watchdog)).Failure())
		}
	}
	if h != nil {
		return fail(h.Report(check.FailBudget, fmt.Sprintf("cycle budget (%d) exhausted", maxCycles)).Failure())
	}
	return fail(fmt.Errorf("hier: scripts did not complete within %d cycles", maxCycles))
}
