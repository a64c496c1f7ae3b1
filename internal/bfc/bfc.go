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

import "slices"

// extent is a contiguous arena region.
type extent struct{ off, size int64 }

// allocator manages a fixed arena with best-fit allocation and immediate
// coalescing of freed neighbours. It indexes only the free space; a live
// allocation's extent is held by its owner, the Replayer's per-ID slot.
type allocator struct {
	// free holds the free extents in address order, never two touching.
	free []extent

	used, peak int64
	footprint  int64
}

// reset returns the allocator to one free extent spanning a new arena,
// keeping the free list's storage (room for 4 from the start: traces leave
// few holes).
func (a *allocator) reset(arena int64) {
	if arena <= 0 {
		panic("bfc: non-positive arena")
	}
	a.free = append(slices.Grow(a.free[:0], 4), extent{size: arena})
	a.used, a.peak, a.footprint = 0, 0, 0
}

// align rounds requests up to 256 bytes, as GPU allocators do.
const align = 256

func roundUp(n int64) int64 {
	if n <= 0 {
		return align
	}
	return (n + align - 1) &^ (align - 1)
}

// place reserves n aligned bytes at the low end of the best-fitting free
// extent — the smallest that holds n, the lowest-addressed on ties — and
// returns their offset, or false when nothing fits.
func (a *allocator) place(n int64) (int64, bool) {
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
	return off, true
}

// release returns allocated extent x to the free list, merging it with the
// free extent that ends at its offset and the one that starts at its end.
func (a *allocator) release(x extent) {
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
