package bfc

// Stats is a point-in-time snapshot of the allocator, exposed so replay
// tooling and metrics can read the arena state without poking internals.
type Stats struct {
	// Arena is the fixed arena size the allocator manages.
	Arena int64
	// BytesInUse is the currently allocated bytes (after 256-byte alignment).
	BytesInUse int64
	// HighWater is the maximum BytesInUse ever observed.
	HighWater int64
	// Footprint is the high-water mark of the arena *extent* — the largest
	// end offset any allocation ever reached. Footprint ≥ HighWater; the gap
	// is fragmentation: holes between live blocks still occupy address space.
	Footprint int64
	// Allocs counts successful allocations.
	Allocs uint64
	// FragmentationRatio is 1 − largestFree/totalFree (0 = one contiguous
	// free region, → 1 as the free space shatters; 0 when the arena is full).
	FragmentationRatio float64
	// FreeBlocks is the number of free regions.
	FreeBlocks int
	// LargestFree is the largest single free region.
	LargestFree int64
}

// Stats snapshots the allocator. It is O(free regions) and read-only.
func (a *Allocator) Stats() Stats {
	total, largest := a.freeSpace()
	return Stats{
		Arena:              a.arena,
		BytesInUse:         a.used,
		HighWater:          a.peak,
		Footprint:          a.footprint,
		Allocs:             a.allocs,
		FragmentationRatio: fragmentation(total, largest),
		FreeBlocks:         len(a.free),
		LargestFree:        largest,
	}
}

// Footprint returns the high-water mark of the arena extent (see
// Stats.Footprint) — the fragmented peak a fixed arena would need to hold
// this allocation history.
func (a *Allocator) Footprint() int64 { return a.footprint }
