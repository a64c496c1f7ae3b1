// Package bfc implements a best-fit-with-coalescing memory allocator — the
// algorithm behind TensorFlow's bfc_allocator, whose behaviour the paper
// inspects when reporting memory usage (§8.1: "we also investigate and
// report the memory allocation of TensorFlow's bfc_allocator"). The
// simulators use byte counters for speed; this package exists to study the
// allocator-level effects of out-of-order schedules: reordering δW changes
// tensor lifetimes, which changes fragmentation and the high-water mark of
// the arena.
//
// The policy is TensorFlow's: best fit, lowest address on ties, immediate
// coalescing of freed neighbours. The index is sized to the traffic it
// serves: TensorFlow bins free chunks by size class for arenas with many
// holes, while every schedule trace of the model zoo leaves at most 3 free
// extents at any allocation (1.3 on average), so the free space is one
// address-ordered slice that best fit scans.
package bfc

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// ErrOutOfMemory is returned when no free region can satisfy a request.
var ErrOutOfMemory = errors.New("bfc: out of memory")

// extent is a contiguous arena region.
type extent struct{ off, size int64 }

// Allocator manages a fixed arena with best-fit allocation and immediate
// coalescing of freed neighbours. The allocator indexes only the free
// space; a live allocation's extent is held by its owner (the offset map
// for Alloc/Free, the Replayer's per-ID slot for a replay).
type Allocator struct {
	arena int64
	// free holds the free extents in address order, never two touching.
	free []extent
	live map[int64]int64 // allocated sizes by offset (Alloc/Free only)

	used, peak int64
	footprint  int64
	allocs     uint64
}

// New creates an allocator over an arena of the given size.
func New(arena int64) *Allocator {
	a := &Allocator{live: make(map[int64]int64)}
	a.reset(arena)
	return a
}

// reset returns the allocator to one free extent spanning a new arena,
// keeping the free list's storage (room for 4 from the start: traces leave
// few holes).
func (a *Allocator) reset(arena int64) {
	if arena <= 0 {
		panic("bfc: non-positive arena")
	}
	a.arena = arena
	a.free = append(slices.Grow(a.free[:0], 4), extent{size: arena})
	clear(a.live)
	a.used, a.peak, a.footprint, a.allocs = 0, 0, 0, 0
}

// align rounds requests up to 256 bytes, as GPU allocators do.
const align = 256

func roundUp(n int64) int64 {
	if n <= 0 {
		return align
	}
	return (n + align - 1) &^ (align - 1)
}

// Alloc reserves n bytes and returns the arena offset.
func (a *Allocator) Alloc(n int64) (int64, error) {
	if n < 0 {
		panic("bfc: negative allocation")
	}
	n = roundUp(n)
	off, ok := a.place(n)
	if !ok {
		return 0, fmt.Errorf("%w: want %d, used %d of %d (largest free %d)",
			ErrOutOfMemory, n, a.used, a.arena, a.largestFree())
	}
	a.live[off] = n
	return off, nil
}

// place reserves n aligned bytes at the low end of the best-fitting free
// extent — the smallest that holds n, the lowest-addressed on ties — and
// returns their offset, or false when nothing fits.
func (a *Allocator) place(n int64) (int64, bool) {
	best := -1
	for i := range a.free {
		if s := a.free[i].size; s >= n && (best < 0 || s < a.free[best].size) {
			best = i
		}
	}
	if best < 0 {
		return 0, false
	}
	e := &a.free[best]
	off := e.off
	if e.size == n {
		a.free = append(a.free[:best], a.free[best+1:]...)
	} else {
		e.off += n
		e.size -= n
	}
	a.used += n
	a.peak = max(a.peak, a.used)
	a.footprint = max(a.footprint, off+n)
	a.allocs++
	return off, true
}

// Free releases the allocation at the given offset, coalescing with free
// neighbours. Freeing an unknown offset panics — it is always a caller bug.
func (a *Allocator) Free(off int64) {
	n, ok := a.live[off]
	if !ok {
		panic(fmt.Sprintf("bfc: free of unallocated offset %d", off))
	}
	delete(a.live, off)
	a.release(extent{off, n})
}

// release returns allocated extent x to the free list, merging it with the
// free extent that ends at its offset and the one that starts at its end.
func (a *Allocator) release(x extent) {
	a.used -= x.size
	f := a.free
	j := 0
	for j < len(f) && f[j].off < x.off {
		j++
	}
	prev := j > 0 && f[j-1].off+f[j-1].size == x.off
	next := j < len(f) && f[j].off == x.off+x.size
	switch {
	case prev && next:
		f[j-1].size += x.size + f[j].size
		a.free = append(f[:j], f[j+1:]...)
	case prev:
		f[j-1].size += x.size
	case next:
		f[j] = extent{x.off, x.size + f[j].size}
	default:
		f = append(f, extent{})
		copy(f[j+1:], f[j:])
		f[j] = x
		a.free = f
	}
}

// Used returns the currently allocated bytes (after alignment).
func (a *Allocator) Used() int64 { return a.used }

// Peak returns the high-water mark of allocated bytes.
func (a *Allocator) Peak() int64 { return a.peak }

// Allocs returns the number of successful allocations.
func (a *Allocator) Allocs() uint64 { return a.allocs }

// freeSpace returns the free extents' total size and the largest one.
func (a *Allocator) freeSpace() (total, largest int64) {
	for _, e := range a.free {
		total += e.size
		largest = max(largest, e.size)
	}
	return total, largest
}

func (a *Allocator) largestFree() int64 {
	_, largest := a.freeSpace()
	return largest
}

// Fragmentation returns 1 − largestFree/totalFree: 0 when the free space is
// one contiguous region, approaching 1 as it shatters. Returns 0 when the
// arena is full.
func (a *Allocator) Fragmentation() float64 {
	return fragmentation(a.freeSpace())
}

func fragmentation(totalFree, largestFree int64) float64 {
	if totalFree == 0 {
		return 0
	}
	return 1 - float64(largestFree)/float64(totalFree)
}

// CheckInvariants validates the free list — address-ordered, inside the
// arena, sizes positive, no two extents touching (coalesced) — and that it
// and the bytes in use cover the arena; extents held through Alloc must
// tile the holes exactly. Used by tests after every operation.
func (a *Allocator) CheckInvariants() error {
	var end, free int64
	for i, e := range a.free {
		if e.size <= 0 || e.off < 0 {
			return fmt.Errorf("bfc: free extent of %d bytes at %d", e.size, e.off)
		}
		if i > 0 && e.off <= end {
			return fmt.Errorf("bfc: free extent at %d overlaps or touches the one ending at %d", e.off, end)
		}
		end = e.off + e.size
		free += e.size
	}
	if end > a.arena || free+a.used != a.arena {
		return fmt.Errorf("bfc: %d free and %d used bytes (list ending at %d) in an arena of %d", free, a.used, end, a.arena)
	}
	if len(a.live) == 0 {
		return nil
	}
	all := slices.Clone(a.free)
	for off, n := range a.live {
		all = append(all, extent{off, n})
	}
	slices.SortFunc(all, func(x, y extent) int { return cmp.Compare(x.off, y.off) })
	var at int64
	for _, e := range all {
		if e.off != at {
			return fmt.Errorf("bfc: extent at %d, expected %d", e.off, at)
		}
		at += e.size
	}
	if at != a.arena {
		return fmt.Errorf("bfc: extents cover %d of %d", at, a.arena)
	}
	return nil
}
