package graph

import (
	"fmt"

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
	flags  []bool
}

// TraceAllocs derives the trace of one schedule with a fresh AllocTracer;
// see AllocTracer.Trace.
func TraceAllocs(m *models.Model, s BackwardSchedule) AllocTrace {
	var t AllocTracer
	return t.Trace(m, s)
}

// Trace derives the alloc/free trace of a backward schedule over a
// model, following exactly the lifetime rules of MemoryProfile: activation
// a_{i-1} (ActBytes of layer i) is live from the start and freed by δW_i;
// gradient g_i (OutBytes of layer i) is produced by the upstream δO and
// freed once both δO_i and δW_i ran; the δW workspace (WorkBytes) is
// allocated and freed within its own op. Within a δW op the workspace is
// allocated first and freed last — δW reads a_{i-1} and g_i *while* using
// its workspace, so the trace's transient peak at that op is at least the
// value MemoryProfile charges there (which books the frees before the
// workspace), and the live sum at each op boundary is exactly
// MemoryProfile[p] minus the WorkBytes transient for δW ops.
//
// Zero-byte tensors emit no events (an allocator would round them up and
// distort the profile). The schedule must be valid; Trace panics otherwise,
// mirroring MemoryProfile's contract via Validate. The returned trace
// aliases the tracer's storage and is valid until the next call.
func (t *AllocTracer) Trace(m *models.Model, s BackwardSchedule) AllocTrace {
	L := len(m.Layers)
	// flags holds three tables: two of L+2 flags that first serve validate
	// and then mark the δO and δW ops run so far, and one marking the live
	// tensor IDs, which run to 2L+1.
	if n := 4*L + 6; cap(t.flags) < n {
		t.flags = make([]bool, n)
	} else {
		t.flags = t.flags[:n]
		clear(t.flags)
	}
	doneDO, doneDW, allocated := t.flags[:L+2], t.flags[L+2:2*L+4], t.flags[2*L+4:]
	if err := s.validate(L, doneDO, doneDW); err != nil {
		panic(fmt.Sprintf("graph: %v", err))
	}
	clear(t.flags[:2*L+4])
	// Each activation, gradient and δW workspace is allocated and freed at
	// most once.
	if n := 6 * L; cap(t.events) < n {
		t.events = make([]AllocEvent, 0, n)
	}
	if cap(t.opEnd) < len(s) {
		t.opEnd = make([]int, 0, len(s))
	}
	layer := func(i int) *models.Layer { return &m.Layers[i-1] } // no 136-byte copy
	actID := func(i int) int { return i }
	gradID := func(i int) int { return L + i }
	wsID := 2*L + 1

	events := t.events[:0]
	alloc := func(id int, bytes int64) {
		if bytes <= 0 {
			return
		}
		events = append(events, AllocEvent{ID: id, Bytes: bytes})
		allocated[id] = true
	}
	free := func(id int) {
		if !allocated[id] {
			return
		}
		events = append(events, AllocEvent{ID: id, Free: true})
		allocated[id] = false
	}

	// Initial residency: every stored activation, then the loss gradient.
	for i := 1; i <= L; i++ {
		alloc(actID(i), layer(i).ActBytes)
	}
	alloc(gradID(L), layer(L).OutBytes)
	resident := len(events)

	opEnd := t.opEnd[:0]
	for _, op := range s {
		i := op.Layer
		switch op.Kind {
		case OutGrad:
			doneDO[i] = true
			if i > 1 {
				alloc(gradID(i-1), layer(i-1).OutBytes)
			}
			if doneDW[i] {
				free(gradID(i))
			}
		case WeightGrad:
			doneDW[i] = true
			alloc(wsID, layer(i).WorkBytes)
			free(actID(i))
			if doneDO[i] {
				free(gradID(i))
			}
			free(wsID)
		}
		opEnd = append(opEnd, len(events))
	}
	t.events, t.opEnd = events, opEnd
	return AllocTrace{Events: events, Init: resident, OpEnd: opEnd}
}
