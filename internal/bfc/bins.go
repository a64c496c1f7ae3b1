package bfc

import (
	"fmt"
	"math/bits"
)

// freeBins indexes free blocks by power-of-two size class, the structure
// real BFC allocators use to avoid scanning every block on allocation.
// Within a class, blocks (slab indices) are kept sorted by (size, offset) so
// selection is deterministic best-fit.
type freeBins struct {
	bins [64][]int32
}

// class returns the size class: floor(log2(size/align)).
func class(size int64) int {
	u := uint64(size / align)
	if u == 0 {
		return 0
	}
	return bits.Len64(u) - 1
}

// search returns the first position in bin whose block sorts at or after
// (size, off).
func search(blocks []block, bin []int32, size, off int64) int {
	lo, hi := 0, len(bin)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b := &blocks[bin[mid]]; b.size < size || (b.size == size && b.off < off) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// reset empties every bin, keeping its storage.
func (f *freeBins) reset() {
	for c := range f.bins {
		f.bins[c] = f.bins[c][:0]
	}
}

// insert adds free block i to its bin.
func (f *freeBins) insert(blocks []block, i int32) {
	b := &blocks[i]
	c := class(b.size)
	bin := f.bins[c]
	at := search(blocks, bin, b.size, b.off)
	bin = append(bin, 0)
	copy(bin[at+1:], bin[at:])
	bin[at] = i
	f.bins[c] = bin
}

// remove deletes free block i from its bin; the block must be present.
func (f *freeBins) remove(blocks []block, i int32) {
	b := &blocks[i]
	c := class(b.size)
	bin := f.bins[c]
	at := search(blocks, bin, b.size, b.off)
	if at >= len(bin) || bin[at] != i {
		panic(fmt.Sprintf("bfc: free block at %d (size %d) missing from bin %d", b.off, b.size, c))
	}
	f.bins[c] = append(bin[:at], bin[at+1:]...)
}

// take returns the best-fitting free block of at least n bytes, removed from
// its bin, or none. Within the first class holding a fit, the smallest
// adequate block wins (lowest offset on ties); higher classes always fit, so
// their first (smallest) entry is the best fit overall.
func (f *freeBins) take(blocks []block, n int64) int32 {
	for c := class(n); c < len(f.bins); c++ {
		bin := f.bins[c]
		if at := search(blocks, bin, n, 0); at < len(bin) {
			i := bin[at]
			f.bins[c] = append(bin[:at], bin[at+1:]...)
			return i
		}
	}
	return none
}

// count returns the total number of binned blocks (for invariant checks).
func (f *freeBins) count() int {
	n := 0
	for _, bin := range f.bins {
		n += len(bin)
	}
	return n
}
