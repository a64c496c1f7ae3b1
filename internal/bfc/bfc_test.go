package bfc

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// testArena drives the allocator through place/release, as the Replayer
// does, and keeps each live extent's size by offset so checkInvariants can
// check that the live extents and the free list tile the arena.
type testArena struct {
	allocator
	arena int64
	live  map[int64]int64
}

func newTestArena(size int64) *testArena {
	t := &testArena{arena: size, live: map[int64]int64{}}
	t.reset(size)
	return t
}

// alloc places n bytes, rounded up to the alignment, and reports the offset,
// or false when nothing fits.
func (t *testArena) alloc(n int64) (int64, bool) {
	n = roundUp(n)
	off, ok := t.place(n)
	if ok {
		t.live[off] = n
	}
	return off, ok
}

// dealloc releases the live extent at off.
func (t *testArena) dealloc(off int64) {
	n, ok := t.live[off]
	if !ok {
		panic(fmt.Sprintf("bfc test: free of unallocated offset %d", off))
	}
	delete(t.live, off)
	t.release(extent{off, n})
}

func (t *testArena) check() error { return checkInvariants(&t.allocator, t.arena, t.live) }

// checkInvariants validates the free list — address-ordered, inside the
// arena, sizes positive, no two extents touching (coalesced) — and that it
// and the bytes in use cover the arena. When live (sizes by offset) is
// given, the live extents must tile the holes exactly.
func checkInvariants(a *allocator, arena int64, live map[int64]int64) error {
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
	if end > arena || free+a.used != arena {
		return fmt.Errorf("bfc: %d free and %d used bytes (list ending at %d) in an arena of %d", free, a.used, end, arena)
	}
	if len(live) == 0 {
		return nil
	}
	all := slices.Clone(a.free)
	for off, n := range live {
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
	if at != arena {
		return fmt.Errorf("bfc: extents cover %d of %d", at, arena)
	}
	return nil
}

// drained reports whether the arena is back to one free extent spanning it.
func (t *testArena) drained() bool {
	return t.used == 0 && len(t.free) == 1 && t.free[0] == extent{size: t.arena}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	a := newTestArena(1 << 20)
	off, ok := a.alloc(1000)
	if !ok {
		t.Fatal("1000 bytes do not fit an empty 1 MiB arena")
	}
	if a.used != 1024 { // rounded to 256
		t.Fatalf("used = %d, want 1024", a.used)
	}
	a.dealloc(off)
	if a.used != 0 {
		t.Fatalf("used after free = %d", a.used)
	}
	if err := a.check(); err != nil {
		t.Fatal(err)
	}
	if !a.drained() {
		t.Fatalf("free list after full free = %v, want one extent", a.free)
	}
}

func TestOOMReported(t *testing.T) {
	a := newTestArena(1024)
	if _, ok := a.alloc(512); !ok {
		t.Fatal("512 bytes do not fit an empty 1024-byte arena")
	}
	if _, ok := a.alloc(768); ok {
		t.Fatal("768 bytes placed with 512 free")
	}
	// A failed placement leaves the arena as it was.
	if a.used != 512 || a.footprint != 512 {
		t.Fatalf("after a failed placement: used %d, footprint %d, want 512, 512", a.used, a.footprint)
	}
	if err := a.check(); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.alloc(512); !ok {
		t.Fatal("the remaining 512 bytes do not fit after a failed placement")
	}
}

func TestStatsFreshArena(t *testing.T) {
	a := newTestArena(1 << 20)
	if a.used != 0 || a.peak != 0 || a.footprint != 0 {
		t.Fatalf("fresh arena counters not zeroed: used %d, peak %d, footprint %d", a.used, a.peak, a.footprint)
	}
	if !a.drained() {
		t.Fatalf("fresh arena free list = %v, want one extent of %d", a.free, 1<<20)
	}
	// reset zeroes the counters of a used arena and frees it whole.
	if _, ok := a.alloc(4096); !ok {
		t.Fatal("4096 bytes do not fit an empty 1 MiB arena")
	}
	a.reset(1 << 20)
	a.live = map[int64]int64{}
	if a.used != 0 || a.peak != 0 || a.footprint != 0 || !a.drained() {
		t.Fatalf("after reset: used %d, peak %d, footprint %d, free %v", a.used, a.peak, a.footprint, a.free)
	}
}

func TestStatsTracksUseAndFootprint(t *testing.T) {
	a := newTestArena(1 << 20)
	o1, ok1 := a.alloc(1000) // rounds to 1024
	o2, ok2 := a.alloc(2000) // rounds to 2048
	if !ok1 || !ok2 {
		t.Fatal("two small allocations do not fit an empty 1 MiB arena")
	}
	if a.used != 3072 || a.peak != 3072 || a.footprint != 3072 {
		t.Fatalf("after two allocs: used %d, peak %d, footprint %d, want 3072 each", a.used, a.peak, a.footprint)
	}

	// Free the first block: use drops, peak and footprint hold, and the free
	// space is now two extents (the hole and the tail).
	a.dealloc(o1)
	if a.used != 2048 {
		t.Fatalf("used after free = %d, want 2048", a.used)
	}
	if a.peak != 3072 || a.footprint != 3072 {
		t.Fatalf("high-water regressed: peak %d, footprint %d", a.peak, a.footprint)
	}
	if len(a.free) != 2 {
		t.Fatalf("free extents = %v, want the hole and the tail", a.free)
	}

	// An allocation that fits the hole reuses it without growing the
	// footprint.
	o3, ok := a.alloc(512)
	if !ok || o3 != 0 {
		t.Fatalf("small alloc at %d (ok %v), want the hole at 0", o3, ok)
	}
	if a.footprint != 3072 {
		t.Fatalf("footprint grew to %d reusing a hole", a.footprint)
	}
	a.dealloc(o2)
	a.dealloc(o3)
	if err := a.check(); err != nil {
		t.Fatal(err)
	}
	if !a.drained() {
		t.Fatalf("free list after full free = %v, want one extent", a.free)
	}
}

func TestBestFitPrefersSmallestHole(t *testing.T) {
	a := newTestArena(10 * 1024)
	// Carve [A 1024][B 2048][C 1024][D 1024][tail 5120], then free B and C
	// (they coalesce into a 3072 hole). A 1024 request must land in that
	// hole — the best fit — not in the larger 5120 tail.
	a.alloc(1024)
	b, _ := a.alloc(2048)
	c, _ := a.alloc(1024)
	a.alloc(1024)
	a.dealloc(b)
	a.dealloc(c)
	off, ok := a.alloc(1024)
	if !ok {
		t.Fatal("1024 bytes do not fit")
	}
	if off != b {
		t.Fatalf("alloc at %d, want the coalesced hole at %d", off, b)
	}
	if err := a.check(); err != nil {
		t.Fatal(err)
	}
}

// Property: random alloc/free sequences never violate the invariants, never
// hand out overlapping regions, and a full drain always returns the arena to
// one free block.
func TestRandomWorkloadProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := newTestArena(1 << 20)
		var live []extent
		for step := 0; step < 300; step++ {
			if rng.Intn(2) == 0 && len(live) > 0 {
				i := rng.Intn(len(live))
				a.dealloc(live[i].off)
				live = append(live[:i], live[i+1:]...)
			} else {
				size := int64(rng.Intn(8192) + 1)
				off, ok := a.alloc(size)
				if !ok {
					continue // arena full; fine
				}
				// Overlap check against all live allocations.
				end := off + roundUp(size)
				for _, l := range live {
					if off < l.off+l.size && l.off < end {
						return false
					}
				}
				live = append(live, extent{off, roundUp(size)})
			}
			if err := a.check(); err != nil {
				t.Logf("invariant: %v", err)
				return false
			}
		}
		for _, l := range live {
			a.dealloc(l.off)
		}
		return a.drained() && a.check() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: peak never exceeds the arena and is monotone.
func TestPeakBoundsProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		a := newTestArena(1 << 18)
		var offs []int64
		prevPeak := int64(0)
		for _, s := range sizes {
			if off, ok := a.alloc(int64(s)); ok {
				offs = append(offs, off)
			}
			if a.peak < prevPeak || a.peak > 1<<18 {
				return false
			}
			prevPeak = a.peak
		}
		for _, o := range offs {
			a.dealloc(o)
		}
		return a.peak == prevPeak
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFootprintExceedsHighWaterUnderFragmentation(t *testing.T) {
	// Alternate alloc/free so live blocks straddle holes: eight 4096-byte
	// tensors fill the first arena, the even ones go, and an 8192-byte one
	// fits none of the 4096 holes, so it extends the footprint past the
	// in-use high-water mark.
	var events []Event
	for i := 0; i < 8; i++ {
		events = append(events, Event{ID: i, Bytes: 4096})
	}
	for i := 0; i < 8; i += 2 {
		events = append(events, Event{ID: i, Free: true})
	}
	events = append(events, Event{ID: 8, Bytes: 8192})
	for i := 1; i < 8; i += 2 {
		events = append(events, Event{ID: i, Free: true})
	}
	events = append(events, Event{ID: 8, Free: true})
	res := Replay(events)
	if res.FragPeakBytes <= res.AlignedPeakBytes {
		t.Fatalf("footprint %d not above high-water %d under fragmentation: %+v",
			res.FragPeakBytes, res.AlignedPeakBytes, res)
	}
}
