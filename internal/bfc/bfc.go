// Package bfc implements a best-fit-with-coalescing memory allocator — the
// algorithm behind TensorFlow's bfc_allocator, whose behaviour the paper
// inspects when reporting memory usage (§8.1: "we also investigate and
// report the memory allocation of TensorFlow's bfc_allocator"). The
// simulators use byte counters for speed; this package exists to study the
// allocator-level effects of out-of-order schedules: reordering δW changes
// tensor lifetimes, which changes fragmentation and the high-water mark of
// the arena.
package bfc

import (
	"errors"
	"fmt"
)

// ErrOutOfMemory is returned when no free region can satisfy a request.
var ErrOutOfMemory = errors.New("bfc: out of memory")

// none is the nil link of the block list.
const none = -1

// block is a contiguous arena region, free or allocated, in a doubly linked
// address-ordered list. Blocks live in the allocator's slab and link by slab
// index, so resetting an allocator is a truncation and the records hold no
// pointers.
type block struct {
	off, size  int64
	prev, next int32
	free       bool
}

// Allocator manages a fixed arena with best-fit allocation and immediate
// coalescing of freed neighbours. Free blocks are indexed in power-of-two
// size-class bins (see bins.go), so Alloc is O(log classes + log bin) rather
// than a scan of every block — the same structure TensorFlow's bfc_allocator
// uses.
type Allocator struct {
	arena int64
	// blocks is the record slab. Index 0 is always the block at offset 0:
	// splits keep the low part in place and coalescing keeps the low
	// neighbour's record.
	blocks []block
	spare  []int32         // slab records released by coalescing
	byOff  map[int64]int32 // allocated blocks by offset (Alloc/Free only)
	free   freeBins

	used, peak int64
	footprint  int64
	allocs     uint64
}

// New creates an allocator over an arena of the given size.
func New(arena int64) *Allocator {
	a := &Allocator{byOff: make(map[int64]int32)}
	a.reset(arena)
	return a
}

// reset returns the allocator to one free block spanning a new arena,
// keeping the slab's and the bins' storage.
func (a *Allocator) reset(arena int64) {
	if arena <= 0 {
		panic("bfc: non-positive arena")
	}
	a.arena = arena
	a.blocks = append(a.blocks[:0], block{size: arena, prev: none, next: none, free: true})
	a.spare = a.spare[:0]
	clear(a.byOff)
	a.free.reset()
	a.free.insert(a.blocks, 0)
	a.used, a.peak, a.footprint, a.allocs = 0, 0, 0, 0
}

// align rounds requests up to 256 bytes, as GPU allocators do.
const align = 256

func roundUp(n int64) int64 {
	if n <= 0 {
		return align
	}
	return (n + align - 1) / align * align
}

// Alloc reserves n bytes and returns the arena offset.
func (a *Allocator) Alloc(n int64) (int64, error) {
	if n < 0 {
		panic("bfc: negative allocation")
	}
	n = roundUp(n)
	i := a.allocBlock(n)
	if i == none {
		return 0, fmt.Errorf("%w: want %d, used %d of %d (largest free %d)",
			ErrOutOfMemory, n, a.used, a.arena, a.largestFree())
	}
	off := a.blocks[i].off
	a.byOff[off] = i
	return off, nil
}

// allocBlock reserves n aligned bytes in the best-fitting free block,
// splitting off the remainder, and returns the block's slab index, or none
// when nothing fits.
func (a *Allocator) allocBlock(n int64) int32 {
	i := a.free.take(a.blocks, n)
	if i == none {
		return none
	}
	if b := a.blocks[i]; b.size > n {
		rest := a.newBlock(block{off: b.off + n, size: b.size - n, prev: i, next: b.next, free: true})
		if b.next != none {
			a.blocks[b.next].prev = rest
		}
		a.blocks[i].next = rest
		a.blocks[i].size = n
		a.free.insert(a.blocks, rest)
	}
	b := &a.blocks[i]
	b.free = false
	a.used += b.size
	if a.used > a.peak {
		a.peak = a.used
	}
	if end := b.off + b.size; end > a.footprint {
		a.footprint = end
	}
	a.allocs++
	return i
}

// newBlock stores a record in the slab, reusing a released slot if any.
func (a *Allocator) newBlock(b block) int32 {
	if n := len(a.spare); n > 0 {
		i := a.spare[n-1]
		a.spare = a.spare[:n-1]
		a.blocks[i] = b
		return i
	}
	a.blocks = append(a.blocks, b)
	return int32(len(a.blocks) - 1)
}

// Free releases the allocation at the given offset, coalescing with free
// neighbours. Freeing an unknown offset panics — it is always a caller bug.
func (a *Allocator) Free(off int64) {
	i, ok := a.byOff[off]
	if !ok {
		panic(fmt.Sprintf("bfc: free of unallocated offset %d", off))
	}
	delete(a.byOff, off)
	a.freeBlock(i)
}

// freeBlock releases allocated block i, coalescing with next, then with
// prev, keeping the bins in sync.
func (a *Allocator) freeBlock(i int32) {
	b := &a.blocks[i]
	a.used -= b.size
	b.free = true
	if n := b.next; n != none && a.blocks[n].free {
		a.free.remove(a.blocks, n)
		a.absorbNext(i)
	}
	if p := b.prev; p != none && a.blocks[p].free {
		a.free.remove(a.blocks, p)
		a.absorbNext(p)
		i = p
	}
	a.free.insert(a.blocks, i)
}

// absorbNext merges block i's successor into it and releases the
// successor's record.
func (a *Allocator) absorbNext(i int32) {
	b := &a.blocks[i]
	n := b.next
	b.size += a.blocks[n].size
	b.next = a.blocks[n].next
	if b.next != none {
		a.blocks[b.next].prev = i
	}
	a.spare = append(a.spare, n)
}

// Used returns the currently allocated bytes (after alignment).
func (a *Allocator) Used() int64 { return a.used }

// Peak returns the high-water mark of allocated bytes.
func (a *Allocator) Peak() int64 { return a.peak }

// Allocs returns the number of successful allocations.
func (a *Allocator) Allocs() uint64 { return a.allocs }

// freeSpace walks the block list and returns the number of free regions,
// their total size and the largest one.
func (a *Allocator) freeSpace() (regions int, total, largest int64) {
	for i := int32(0); i != none; i = a.blocks[i].next {
		b := &a.blocks[i]
		if !b.free {
			continue
		}
		regions++
		total += b.size
		if b.size > largest {
			largest = b.size
		}
	}
	return regions, total, largest
}

func (a *Allocator) largestFree() int64 {
	_, _, largest := a.freeSpace()
	return largest
}

// Fragmentation returns 1 − largestFree/totalFree: 0 when the free space is
// one contiguous region, approaching 1 as it shatters. Returns 0 when the
// arena is full.
func (a *Allocator) Fragmentation() float64 {
	_, total, largest := a.freeSpace()
	return fragmentation(total, largest)
}

func fragmentation(totalFree, largestFree int64) float64 {
	if totalFree == 0 {
		return 0
	}
	return 1 - float64(largestFree)/float64(totalFree)
}

// CheckInvariants validates the block list: address-ordered, gap-free, no
// adjacent free blocks, sizes positive. Used by tests after every operation.
func (a *Allocator) CheckInvariants() error {
	var off int64
	prevFree := false
	freeBlocks := 0
	for i := int32(0); i != none; i = a.blocks[i].next {
		b := &a.blocks[i]
		if b.off != off {
			return fmt.Errorf("bfc: block at %d, expected %d", b.off, off)
		}
		if b.size <= 0 {
			return fmt.Errorf("bfc: non-positive block size at %d", b.off)
		}
		if b.free && prevFree {
			return fmt.Errorf("bfc: uncoalesced free blocks at %d", b.off)
		}
		if b.next != none && a.blocks[b.next].prev != i {
			return fmt.Errorf("bfc: broken back-link at %d", b.off)
		}
		if b.free {
			freeBlocks++
		}
		prevFree = b.free
		off += b.size
	}
	if off != a.arena {
		return fmt.Errorf("bfc: blocks cover %d of %d", off, a.arena)
	}
	// Bin consistency: every free block binned exactly once.
	if got := a.free.count(); got != freeBlocks {
		return fmt.Errorf("bfc: %d blocks binned, %d free in the list", got, freeBlocks)
	}
	return nil
}
