package bfc

import (
	"fmt"
	"slices"
)

// Event is one step of an allocation trace: an alloc or a free of a named
// tensor. Traces are how schedule planners ask "what would this alloc/free
// sequence cost through a real BFC arena?" — the fragmented answer, not the
// logical byte sum.
type Event struct {
	// ID names the tensor; the free of an ID matches its most recent alloc.
	// IDs are small non-negative integers: the replay keeps one table slot
	// per ID up to the largest one in the trace.
	ID int
	// Bytes is the requested allocation size (alloc events only).
	Bytes int64
	// Free marks a free event.
	Free bool
}

// ReplayResult reports one trace replayed through an allocator.
type ReplayResult struct {
	// Arena is the arena size the replay settled on: the first of
	// roundUp(LogicalPeakBytes)·2ⁿ, n = 0, 1, …, that the trace fit.
	Arena int64
	// LogicalPeakBytes is the high-water mark of the plain byte sum of live
	// allocations — what a byte-counter simulator reports.
	LogicalPeakBytes int64
	// AlignedPeakBytes is the allocator's high-water mark of bytes in use
	// after 256-byte alignment (≥ LogicalPeakBytes).
	AlignedPeakBytes int64
	// FragPeakBytes is the footprint high-water mark in that arena: the
	// largest extent the trace ever occupied, holes included. This is the
	// arena a fixed-size device allocation would actually need.
	FragPeakBytes int64
	// FragRatio is FragPeakBytes / AlignedPeakBytes (≥ 1; 1 when the
	// allocator packed the trace with no holes at the peak).
	FragRatio float64
	// Events is the number of trace events applied.
	Events int
}

// Replay runs a trace through a fresh Replayer; see Replayer.Replay.
func Replay(events []Event) ReplayResult {
	var r Replayer
	return r.Replay(events)
}

// Replayer replays traces through one allocator that is reset, not rebuilt,
// between arenas and between traces, so a warm Replayer allocates nothing.
// The zero value is ready to use; a Replayer is not safe for concurrent use.
type Replayer struct {
	a allocator
	// slot is the per-ID table: while checking the trace, a live ID's
	// requested bytes in size (dead = −1); while replaying, the extent the
	// ID holds.
	slot []extent
}

// Replay runs a trace through the allocator and reports the fragmented
// memory profile. The arena starts at the trace's logical peak rounded up to
// the alignment and doubles on out-of-memory, each attempt starting from an
// empty arena, so the replay always completes and is deterministic.
// FragPeakBytes is *defined* as the footprint in the first fitting arena of
// that roundUp(logicalPeak)·2ⁿ sequence: best-fit weighs the free tail block,
// whose size is the arena size minus the extent in use, so the same trace can
// be placed differently — and reach a different footprint — in a larger
// arena.
//
// Replay panics on malformed traces (free of a dead ID, double alloc of a
// live ID, negative size or ID, an ID left live) — traces are
// machine-generated, so malformation is always a producer bug. A Replayer
// stays usable after such a panic.
func (r *Replayer) Replay(events []Event) ReplayResult {
	for i := range r.slot {
		r.slot[i].size = -1
	}
	var logical, logicalPeak int64
	liveIDs := 0
	for _, ev := range events {
		if ev.Free {
			if ev.ID < 0 || ev.ID >= len(r.slot) || r.slot[ev.ID].size < 0 {
				panic(fmt.Sprintf("bfc: replay frees dead id %d", ev.ID))
			}
			logical -= r.slot[ev.ID].size
			r.slot[ev.ID].size = -1
			liveIDs--
			continue
		}
		if ev.Bytes < 0 {
			panic(fmt.Sprintf("bfc: replay allocs %d bytes for id %d", ev.Bytes, ev.ID))
		}
		if ev.ID < 0 {
			panic(fmt.Sprintf("bfc: replay allocs negative id %d", ev.ID))
		}
		if n := len(r.slot); ev.ID >= n {
			// Allocate once per trace: the planner numbers a trace's
			// tensors below its length, so that capacity holds them all.
			r.slot = slices.Grow(r.slot, max(ev.ID+1, len(events))-n)[:ev.ID+1]
			for i := n; i <= ev.ID; i++ {
				r.slot[i].size = -1
			}
		}
		if r.slot[ev.ID].size >= 0 {
			panic(fmt.Sprintf("bfc: replay re-allocs live id %d", ev.ID))
		}
		r.slot[ev.ID].size = ev.Bytes
		liveIDs++
		logical += ev.Bytes
		if logical > logicalPeak {
			logicalPeak = logical
		}
	}
	if liveIDs != 0 {
		panic(fmt.Sprintf("bfc: replay leaves %d ids live", liveIDs))
	}

	arena := roundUp(logicalPeak)
	for !r.fits(events, arena) {
		arena *= 2
	}
	res := ReplayResult{
		Arena:            arena,
		LogicalPeakBytes: logicalPeak,
		AlignedPeakBytes: r.a.peak,
		FragPeakBytes:    r.a.footprint,
		Events:           len(events),
	}
	if res.AlignedPeakBytes > 0 {
		res.FragRatio = float64(res.FragPeakBytes) / float64(res.AlignedPeakBytes)
	}
	return res
}

// fits applies the (already checked) trace to an empty arena of the given
// size, reporting whether every allocation fit.
func (r *Replayer) fits(events []Event, arena int64) bool {
	r.a.reset(arena)
	for _, ev := range events {
		if ev.Free {
			r.a.release(r.slot[ev.ID])
			continue
		}
		n := roundUp(ev.Bytes)
		off, ok := r.a.place(n)
		if !ok {
			return false
		}
		r.slot[ev.ID] = extent{off, n}
	}
	return true
}
