package bfc

import "testing"

func TestReplaySimpleTrace(t *testing.T) {
	// Two overlapping tensors: logical peak is their sum.
	res := Replay([]Event{
		{ID: 1, Bytes: 1000},
		{ID: 2, Bytes: 2000},
		{ID: 1, Free: true},
		{ID: 3, Bytes: 500},
		{ID: 2, Free: true},
		{ID: 3, Free: true},
	})
	if res.LogicalPeakBytes != 3000 {
		t.Fatalf("logical peak %d, want 3000", res.LogicalPeakBytes)
	}
	if res.AlignedPeakBytes != 3072 {
		t.Fatalf("aligned peak %d, want 3072", res.AlignedPeakBytes)
	}
	if res.FragPeakBytes < res.AlignedPeakBytes {
		t.Fatalf("frag peak %d below aligned peak %d", res.FragPeakBytes, res.AlignedPeakBytes)
	}
	if res.FragRatio < 1 {
		t.Fatalf("frag ratio %v < 1", res.FragRatio)
	}
	if res.Events != 6 {
		t.Fatalf("events %d, want 6", res.Events)
	}
}

func TestReplayAutosizesPastFragmentation(t *testing.T) {
	// Force a footprint above the logical peak: free a small hole, then
	// allocate something too big for it while a later block pins the tail.
	// The first arena attempt (= logical peak) cannot fit the placement, so
	// the replay must grow the arena and still report a deterministic result.
	events := []Event{
		{ID: 1, Bytes: 256},
		{ID: 2, Bytes: 1024},
		{ID: 1, Free: true},
		{ID: 3, Bytes: 512}, // does not fit the 256 hole; lands past ID 2
		{ID: 2, Free: true},
		{ID: 3, Free: true},
	}
	res := Replay(events)
	if res.FragPeakBytes <= res.LogicalPeakBytes {
		t.Fatalf("frag peak %d not above logical peak %d",
			res.FragPeakBytes, res.LogicalPeakBytes)
	}
	// Determinism: same trace, same result.
	res2 := Replay(events)
	if res != res2 {
		t.Fatalf("replay not deterministic:\n%+v\n%+v", res, res2)
	}
}

func TestReplayPanicsOnMalformedTrace(t *testing.T) {
	for name, events := range map[string][]Event{
		"free-dead":    {{ID: 1, Free: true}},
		"double-alloc": {{ID: 1, Bytes: 256}, {ID: 1, Bytes: 256}},
		"leak":         {{ID: 1, Bytes: 256}},
		"negative":     {{ID: 1, Bytes: -1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			Replay(events)
		}()
	}
}

func TestFragmentationMetric(t *testing.T) {
	// Two 1024-byte tensors fill a 3072-byte arena's first two thirds; the
	// first goes, and a 2048-byte one fits neither the 1024 hole nor the
	// 1024 tail. The arena doubles to 6144, where it lands at 2048: the
	// footprint reaches 4096 while at most 3072 bytes are in use.
	res := Replay([]Event{
		{ID: 0, Bytes: 1024},
		{ID: 1, Bytes: 1024},
		{ID: 0, Free: true},
		{ID: 2, Bytes: 2048},
		{ID: 1, Free: true},
		{ID: 2, Free: true},
	})
	want := ReplayResult{
		Arena:            6144,
		LogicalPeakBytes: 3072,
		AlignedPeakBytes: 3072,
		FragPeakBytes:    4096,
		FragRatio:        4096.0 / 3072.0,
		Events:           6,
	}
	if res != want {
		t.Fatalf("replay = %+v, want %+v", res, want)
	}
}

func TestFreeUnknownPanics(t *testing.T) {
	var r Replayer
	good := []Event{{ID: 0, Bytes: 256}, {ID: 0, Free: true}}
	want := r.Replay(good)
	for name, events := range map[string][]Event{
		"never-allocated": {{ID: 3, Bytes: 256}, {ID: 1, Free: true}, {ID: 3, Free: true}},
		"past-the-table":  {{ID: 0, Bytes: 256}, {ID: 5, Free: true}, {ID: 0, Free: true}},
		"negative":        {{ID: -1, Free: true}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			r.Replay(events)
		}()
		// The Replayer stays usable after the panic.
		if got := r.Replay(good); got != want {
			t.Fatalf("%s: replay after the panic = %+v, want %+v", name, got, want)
		}
	}
}

func TestDoubleFreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double free")
		}
	}()
	Replay([]Event{{ID: 1, Bytes: 256}, {ID: 1, Free: true}, {ID: 1, Free: true}})
}

func TestReplayEmptyTrace(t *testing.T) {
	res := Replay(nil)
	if res.LogicalPeakBytes != 0 || res.FragPeakBytes != 0 || res.Events != 0 {
		t.Fatalf("empty trace: %+v", res)
	}
}
