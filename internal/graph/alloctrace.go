package graph

import (
	"oooback/internal/bfc"
	"oooback/internal/models"
)

// This file derives the alloc/free event sequence of a backward schedule —
// the trace an allocator-level replay (internal/bfc) consumes to report the
// *fragmented* peak of a schedule rather than the logical byte sum
// MemoryProfile computes. The two are differential-tested against each
// other: the running byte sum of the trace reproduces MemoryProfile exactly.

// AllocEvent is one alloc or free in a schedule's tensor-lifetime trace —
// the allocator replay's own event type, so a trace is replayed as it is.
// ID names the tensor: activation a_{i-1} (input of layer i) is i, gradient
// g_i is L+i, and the transient δW workspace is 2L+1 (reused, but never live
// across ops).
type AllocEvent = bfc.Event

// AllocTrace is the tensor-lifetime event sequence of one backward schedule.
type AllocTrace struct {
	// Events holds the trace: Events[:Init] are the allocations resident when
	// the backward pass starts (stored activations and the loss gradient);
	// the rest are grouped per schedule op.
	Events []AllocEvent
	// Init is the number of initial residency events.
	Init int
	// OpEnd[p] is the index into Events just past schedule op p's events, so
	// op p owns Events[start:OpEnd[p]] with start = Init for p = 0 and
	// OpEnd[p-1] otherwise.
	OpEnd []int
}

// AllocTracer derives traces into storage it keeps between calls, so a warm
// tracer allocates nothing. The zero value is ready to use; a tracer is not
// safe for concurrent use.
type AllocTracer struct {
	events []AllocEvent
	opEnd  []int
	walk   Walker
}

// TraceAllocs derives the trace of one schedule with a fresh AllocTracer;
// see AllocTracer.Trace.
func TraceAllocs(m *models.Model, s BackwardSchedule) AllocTrace {
	var t AllocTracer
	return t.Trace(m, s)
}

// Trace derives the alloc/free trace of a backward schedule over a model:
// the Walker's lifetime rule, one event per tensor it defines or frees.
// Within a δW op the workspace is allocated first and freed last — δW reads
// a_{i-1} and g_i *while* using its workspace — so the events of δW_i are:
// alloc workspace, free a_{i-1}, free g_i (when δO_i has run), free
// workspace. Those of δO_i are: alloc g_{i-1}, then free g_i (when δW_i has
// run). The trace's transient peak at a δW op is therefore at least the value
// MemoryProfile charges there (which books the frees before the workspace),
// and the live sum at each op boundary is exactly MemoryProfile[p] minus the
// workspace for δW ops.
//
// Zero-byte tensors emit no events (an allocator would round them up and
// distort the profile). The schedule must be valid; Trace panics with
// Validate's error otherwise, as MemoryProfile and PeakMemory do. The
// returned trace aliases the tracer's storage and is valid until the next
// call.
func (t *AllocTracer) Trace(m *models.Model, s BackwardSchedule) AllocTrace {
	L := len(m.Layers)
	t.walk.begin(m, s)
	// Each activation, gradient and δW workspace is allocated and freed at
	// most once.
	if n := 6 * L; cap(t.events) < n {
		t.events = make([]AllocEvent, 0, n)
	}
	if cap(t.opEnd) < len(s) {
		t.opEnd = make([]int, 0, len(s))
	}
	wsID := 2*L + 1
	events := t.events[:0]
	alloc := func(id int, bytes int64) {
		if bytes > 0 {
			events = append(events, AllocEvent{ID: id, Bytes: bytes})
		}
	}
	free := func(id int, bytes int64) {
		if bytes > 0 {
			events = append(events, AllocEvent{ID: id, Free: true})
		}
	}

	// Initial residency: every stored activation, then the loss gradient.
	for i := 1; i <= L; i++ {
		alloc(i, m.Layers[i-1].ActBytes)
	}
	alloc(2*L, m.Layers[L-1].OutBytes)
	resident := len(events)

	opEnd := t.opEnd[:0]
	for _, op := range s {
		i := op.Layer
		e, ok := t.walk.next(op)
		if !ok {
			panic(t.walk.illegal(op))
		}
		if op.Kind == WeightGrad {
			alloc(wsID, e.work)
			free(i, e.act)
			free(L+i, e.grad)
			free(wsID, e.work)
		} else {
			alloc(L+i-1, e.def)
			free(L+i, e.grad)
		}
		opEnd = append(opEnd, len(events))
	}
	t.events, t.opEnd = events, opEnd
	return AllocTrace{Events: events, Init: resident, OpEnd: opEnd}
}
