package bfc

import "testing"

func TestStatsFreshArena(t *testing.T) {
	a := New(1 << 20)
	st := a.Stats()
	if st.Arena != 1<<20 {
		t.Fatalf("arena %d, want %d", st.Arena, 1<<20)
	}
	if st.BytesInUse != 0 || st.HighWater != 0 || st.Footprint != 0 || st.Allocs != 0 {
		t.Fatalf("fresh arena not zeroed: %+v", st)
	}
	if st.FreeBlocks != 1 || st.LargestFree != 1<<20 {
		t.Fatalf("fresh arena free space: %+v", st)
	}
	if st.FragmentationRatio != 0 {
		t.Fatalf("fresh arena fragmented: %v", st.FragmentationRatio)
	}
}

func TestStatsTracksUseAndFootprint(t *testing.T) {
	a := New(1 << 20)
	o1, err := a.Alloc(1000) // rounds to 1024
	if err != nil {
		t.Fatal(err)
	}
	o2, err := a.Alloc(2000) // rounds to 2048
	if err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.BytesInUse != 3072 || st.HighWater != 3072 {
		t.Fatalf("use after two allocs: %+v", st)
	}
	if st.Footprint != 3072 {
		t.Fatalf("footprint %d, want 3072", st.Footprint)
	}
	if st.Allocs != 2 {
		t.Fatalf("allocs %d, want 2", st.Allocs)
	}

	// Free the first block: use drops, high-water and footprint hold, and the
	// free space is now two regions (the hole + the tail).
	a.Free(o1)
	st = a.Stats()
	if st.BytesInUse != 2048 {
		t.Fatalf("use after free: %d", st.BytesInUse)
	}
	if st.HighWater != 3072 || st.Footprint != 3072 {
		t.Fatalf("high-water regressed: %+v", st)
	}
	if st.FreeBlocks != 2 {
		t.Fatalf("free blocks %d, want 2", st.FreeBlocks)
	}
	if st.FragmentationRatio <= 0 {
		t.Fatalf("hole not reflected in fragmentation: %v", st.FragmentationRatio)
	}

	// An alloc too big for the hole extends past it; one that fits reuses it
	// without growing the footprint.
	o3, err := a.Alloc(512)
	if err != nil {
		t.Fatal(err)
	}
	if o3 != 0 {
		t.Fatalf("small alloc at %d, want the hole at 0", o3)
	}
	if got := a.Stats().Footprint; got != 3072 {
		t.Fatalf("footprint grew to %d reusing a hole", got)
	}
	a.Free(o2)
	a.Free(o3)
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFootprintExceedsHighWaterUnderFragmentation(t *testing.T) {
	// Alternate alloc/free so live blocks straddle holes: the footprint must
	// exceed the in-use high-water mark.
	a := New(1 << 20)
	var offs []int64
	for i := 0; i < 8; i++ {
		o, err := a.Alloc(4096)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, o)
	}
	for i := 0; i < 8; i += 2 {
		a.Free(offs[i])
	}
	// Live: 4 blocks of 4096 (16384 in use) at offsets up to 7·4096+4096.
	o, err := a.Alloc(8192) // no 8192 hole exists — extends the footprint
	if err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Footprint <= st.HighWater {
		t.Fatalf("footprint %d not above high-water %d under fragmentation",
			st.Footprint, st.HighWater)
	}
	a.Free(o)
	for i := 1; i < 8; i += 2 {
		a.Free(offs[i])
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
