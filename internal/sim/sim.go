// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is intentionally small: a virtual clock, an event heap with
// stable tie-breaking, and a handful of helpers for modelling busy resources.
// Every simulator in this repository (the GPU model in gpusim, the network
// model in netsim, and the training engines built on top of them) schedules
// work through a single Engine so that concurrent activities interleave in a
// reproducible order.
//
// Determinism rules: events that fire at the same virtual time run in the
// order they were scheduled (FIFO by sequence number). No wall-clock time or
// randomness is consulted anywhere in the kernel.
//
// # Performance
//
// The event queue is an intrusive binary heap of slot indices into a
// free-listed slot arena, so scheduling an event performs no per-event heap
// allocation once the arena has grown to the simulation's high-water mark
// (amortized zero allocations per event). Engines are reusable across
// simulations via Reset, which keeps the arena warm. Event handles are
// values carrying a generation number, so a handle retained after its event
// fired (or after Reset) can never cancel an unrelated recycled event.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, measured as a Duration since the start of
// the simulation. Using time.Duration keeps unit handling explicit at call
// sites (e.g. 15*time.Microsecond) while remaining a plain int64 internally.
type Time = time.Duration

// MaxTime is the largest representable virtual time. It is used as the "never"
// sentinel by schedulers that track the next wakeup of an idle resource.
const MaxTime Time = math.MaxInt64

// Event is a handle to a scheduled unit of work. It is a small value (not a
// pointer): the zero Event is inert, and a stale handle — one whose event
// already fired, was cancelled, or was dropped by Engine.Reset — ignores
// Cancel. Handles are engine-specific and not safe for concurrent use.
type Event struct {
	eng  *Engine
	slot int32
	gen  uint32
}

// Cancel prevents the event from firing. Cancelling an event that already
// fired (or was already cancelled) is a no-op.
func (e Event) Cancel() {
	if e.eng == nil {
		return
	}
	e.eng.cancel(e.slot, e.gen)
}

// slot is the arena entry backing one scheduled event.
type slot struct {
	at  Time
	seq uint64
	fn  func()
	gen uint32
	pos int32 // index in Engine.heap; -1 while free
}

// Engine is a discrete-event simulation engine. The zero value is ready to
// use. Engines are not safe for concurrent use; simulations are expected to
// be single-goroutine (all concurrency is virtual).
type Engine struct {
	now Time
	seq uint64

	heap  []int32 // binary heap of slot indices, ordered by (at, seq)
	slots []slot
	free  []int32 // recycled slot indices
}

// New returns a fresh Engine at virtual time zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Reset returns the engine to virtual time zero with an empty queue,
// cancelling every pending event, but keeps the slot arena and heap storage
// so a reused engine schedules without allocating. Handles issued before the
// Reset become stale.
func (e *Engine) Reset() {
	for _, id := range e.heap {
		e.release(id)
	}
	e.heap = e.heap[:0]
	e.now, e.seq = 0, 0
}

// Schedule runs fn at the given absolute virtual time. Scheduling in the past
// panics, since it always indicates a bug in the caller's time arithmetic.
func (e *Engine) Schedule(at Time, fn func()) Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	var id int32
	if n := len(e.free); n > 0 {
		id = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, slot{gen: 1})
		id = int32(len(e.slots) - 1)
	}
	s := &e.slots[id]
	s.at, s.seq, s.fn = at, e.seq, fn
	e.seq++
	s.pos = int32(len(e.heap))
	e.heap = append(e.heap, id)
	e.siftUp(int(s.pos))
	return Event{eng: e, slot: id, gen: s.gen}
}

// After runs fn after delay d relative to the current virtual time.
func (e *Engine) After(d time.Duration, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.Schedule(e.now+d, fn)
}

// Step executes the next event, advancing the clock. It reports whether an
// event was executed (false means the queue was empty).
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	id := e.heap[0]
	s := &e.slots[id]
	e.now = s.at
	fn := s.fn
	e.removeAt(0)
	e.release(id)
	fn()
	return true
}

// Run executes events until the queue drains and returns the final time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// cancel removes the event in the given slot if the generation still matches.
func (e *Engine) cancel(id int32, gen uint32) {
	s := &e.slots[id]
	if s.gen != gen || s.pos < 0 {
		return // already fired, cancelled, or recycled
	}
	e.removeAt(int(s.pos))
	e.release(id)
}

// release recycles a slot onto the free list and invalidates handles to it.
func (e *Engine) release(id int32) {
	s := &e.slots[id]
	s.gen++
	s.fn = nil
	s.pos = -1
	e.free = append(e.free, id)
}

// less orders heap entries by (at, seq): earliest time first, FIFO within a
// time.
func (e *Engine) less(a, b int32) bool {
	sa, sb := &e.slots[a], &e.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	id := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(id, h[parent]) {
			break
		}
		h[i] = h[parent]
		e.slots[h[i]].pos = int32(i)
		i = parent
	}
	h[i] = id
	e.slots[id].pos = int32(i)
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	id := h[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && e.less(h[r], h[child]) {
			child = r
		}
		if !e.less(h[child], id) {
			break
		}
		h[i] = h[child]
		e.slots[h[i]].pos = int32(i)
		i = child
	}
	h[i] = id
	e.slots[id].pos = int32(i)
}

// removeAt deletes the heap entry at index i, restoring heap order.
func (e *Engine) removeAt(i int) {
	h := e.heap
	n := len(h) - 1
	last := h[n]
	e.heap = h[:n]
	if i == n {
		return
	}
	h[i] = last
	e.slots[last].pos = int32(i)
	e.siftDown(i)
	if e.slots[last].pos == int32(i) {
		e.siftUp(i)
	}
}
