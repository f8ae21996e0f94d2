package ctrl

import "xcache/internal/metatag"

// TraceKind labels one observable controller event on the meta-tag
// reference path. The stream of TraceEvents a run emits is exactly the
// sequence of meta-tag array operations in time order. The executor
// differential (exec_diff_test.go, FuzzExecDiff) requires both executors
// to emit the same stream, and its request classes to agree with Stats.
type TraceKind uint8

// Trace event kinds.
const (
	// TraceReq is one admitted meta request: a datapath request consumed
	// from ReqQ, or (Replay=true) a merged waiter re-admitted from the
	// replay queue after its walker settled.
	TraceReq TraceKind = iota
	// TraceAlloc is a walker's allocm: the key's meta-tag entry was
	// allocated (in the walker's pre-settle state).
	TraceAlloc
	// TraceSettle is a walker halt: its entry (if any) became stable and
	// hit-serviceable.
	TraceSettle
	// TraceDealloc is an explicit deallocm of the walker's entry.
	TraceDealloc
	// TraceAbort is a walker abort: the walk ended without a stable
	// entry (not-found on the reference path).
	TraceAbort
	// TraceAllocRetry is an allocm/allocd conflict: the walker retired
	// and its origin request was pushed back to replay, where it is
	// re-admitted and classified (and counted in Stats) a second time.
	TraceAllocRetry
	// TraceDrain is the bulk stable-entry removal (GraphPulse superstep
	// pops).
	TraceDrain
)

// ReqClass is the front-end's classification of an admitted request.
type ReqClass uint8

// Request classifications. They mirror the Stats accounting exactly:
// ClassHit increments Hits, ClassMiss increments Misses, ClassMerge
// increments neither (a merged waiter is re-admitted — and then
// classified — after its walker settles, or answered directly when the
// walk ends not-found).
const (
	ClassHit ReqClass = iota
	ClassMerge
	ClassMiss
)

// TraceEvent is one controller trace record. Field validity depends on
// Kind: Class/Op/ID/Replay are set for TraceReq; State for TraceAlloc;
// Store/HasEntry for TraceSettle; Key for everything except TraceDrain.
type TraceEvent struct {
	Kind     TraceKind
	Class    ReqClass
	Op       MetaOp
	ID       uint64
	Key      metatag.Key
	State    int
	Replay   bool
	Store    bool
	HasEntry bool
}

// TraceSink receives controller trace events in emission order. A sink
// must not mutate controller state; it is called synchronously from the
// simulation loop.
type TraceSink interface {
	Trace(TraceEvent)
}

// SetTraceSink installs (or, with nil, removes) the controller's trace
// sink. With no sink attached the reference path pays only a nil check
// per admitted request.
func (c *Controller) SetTraceSink(s TraceSink) { c.sink = s }

// trace forwards ev to the sink, if any.
func (c *Controller) trace(ev TraceEvent) {
	if c.sink != nil {
		c.sink.Trace(ev)
	}
}
