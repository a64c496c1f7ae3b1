package bfc

import (
	"fmt"
	"math/rand"
	"testing"
)

// refArena is the naive reference allocator: an address-ordered slice of
// regions, best fit by a scan of every free region (smallest adequate size,
// lowest offset on ties), coalescing by a scan on free. It shares no code
// with allocator.
type refArena struct {
	size    int64
	regions []refRegion

	used, peak, footprint int64
}

type refRegion struct {
	off, size int64
	free      bool
}

func newRefArena(size int64) *refArena {
	return &refArena{size: size, regions: []refRegion{{size: size, free: true}}}
}

func (a *refArena) alloc(n int64) (int64, bool) {
	n = roundUp(n)
	best := -1
	for i, r := range a.regions {
		if r.free && r.size >= n && (best < 0 || r.size < a.regions[best].size) {
			best = i
		}
	}
	if best < 0 {
		return 0, false
	}
	r := a.regions[best]
	if r.size > n {
		rest := refRegion{off: r.off + n, size: r.size - n, free: true}
		a.regions = append(a.regions[:best+1], append([]refRegion{rest}, a.regions[best+1:]...)...)
	}
	a.regions[best] = refRegion{off: r.off, size: n}
	a.used += n
	a.peak = max(a.peak, a.used)
	a.footprint = max(a.footprint, r.off+n)
	return r.off, true
}

func (a *refArena) release(off int64) {
	for i := range a.regions {
		if a.regions[i].off == off && !a.regions[i].free {
			a.regions[i].free = true
			a.used -= a.regions[i].size
		}
	}
	merged := a.regions[:0]
	for _, r := range a.regions {
		if n := len(merged); n > 0 && r.free && merged[n-1].free {
			merged[n-1].size += r.size
			continue
		}
		merged = append(merged, r)
	}
	a.regions = merged
}

// refReplay is the map-based replay the Replayer replaced, on refArena. It
// reports every ReplayResult field.
func refReplay(events []Event) ReplayResult {
	var logical, logicalPeak int64
	liveIDs := make(map[int]int64)
	for _, ev := range events {
		if ev.Free {
			sz, ok := liveIDs[ev.ID]
			if !ok {
				panic(fmt.Sprintf("ref: free of dead id %d", ev.ID))
			}
			delete(liveIDs, ev.ID)
			logical -= sz
			continue
		}
		if _, ok := liveIDs[ev.ID]; ok || ev.Bytes < 0 {
			panic(fmt.Sprintf("ref: bad alloc of id %d", ev.ID))
		}
		liveIDs[ev.ID] = ev.Bytes
		logical += ev.Bytes
		logicalPeak = max(logicalPeak, logical)
	}
	if len(liveIDs) != 0 {
		panic("ref: leak")
	}
	for arena := roundUp(logicalPeak); ; arena *= 2 {
		if res, ok := refTryReplay(events, arena); ok {
			res.LogicalPeakBytes = logicalPeak
			return res
		}
	}
}

func refTryReplay(events []Event, arena int64) (ReplayResult, bool) {
	a := newRefArena(arena)
	offs := make(map[int]int64)
	for _, ev := range events {
		if ev.Free {
			a.release(offs[ev.ID])
			delete(offs, ev.ID)
			continue
		}
		off, ok := a.alloc(ev.Bytes)
		if !ok {
			return ReplayResult{}, false
		}
		offs[ev.ID] = off
	}
	res := ReplayResult{Arena: arena, AlignedPeakBytes: a.peak, FragPeakBytes: a.footprint, Events: len(events)}
	if a.peak > 0 {
		res.FragRatio = float64(a.footprint) / float64(a.peak)
	}
	return res, true
}

// randTrace builds a well-formed trace over IDs drawn from [0, ids): sizes
// mix tiny, unaligned and large requests, IDs are reused after their free,
// and everything live at the end is freed in random order.
func randTrace(rng *rand.Rand, ids, steps int) []Event {
	var events []Event
	var live []int
	isLive := make([]bool, ids)
	for i := 0; i < steps; i++ {
		if len(live) > 0 && (len(live) == ids || rng.Intn(5) < 2) {
			j := rng.Intn(len(live))
			events = append(events, Event{ID: live[j], Free: true})
			isLive[live[j]] = false
			live = append(live[:j], live[j+1:]...)
			continue
		}
		id := rng.Intn(ids)
		for isLive[id] {
			id = (id + 1) % ids
		}
		size := int64(rng.Intn(1 << uint(4+rng.Intn(14))))
		events = append(events, Event{ID: id, Bytes: size})
		isLive[id] = true
		live = append(live, id)
	}
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	for _, id := range live {
		events = append(events, Event{ID: id, Free: true})
	}
	return events
}

// TestReplayerMatchesReference replays seeded random traces on ONE Replayer
// — ID ranges and lengths shrinking and growing from trace to trace, so
// state left behind by a bigger trace would show — against the naive
// reference and against a fresh one-shot Replay.
func TestReplayerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var r Replayer
	doubled := 0
	for trial := 0; trial < 1500; trial++ {
		ids := 1 + rng.Intn(1<<uint(1+rng.Intn(7)))
		events := randTrace(rng, ids, rng.Intn(6*ids+2))
		got := r.Replay(events)
		if fresh := Replay(events); got != fresh {
			t.Fatalf("trial %d: warm replayer %+v, fresh %+v", trial, got, fresh)
		}
		if a := r.a; a.used != 0 || a.footprint != got.FragPeakBytes {
			t.Fatalf("trial %d: final arena (used %d, footprint %d) disagrees with %+v", trial, a.used, a.footprint, got)
		}
		// Nothing is live at the end, so the free list must be the whole
		// arena the replay settled on.
		if err := checkInvariants(&r.a, got.Arena, nil); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want := refReplay(events); got != want {
			t.Fatalf("trial %d (%d ids, %d events): replayer %+v, reference %+v", trial, ids, len(events), got, want)
		}
		if got.Arena > roundUp(got.LogicalPeakBytes) {
			doubled++
		}
	}
	if doubled == 0 {
		t.Fatal("no trace needed a doubling: the restart path went untested")
	}
}

// TestFootprintDependsOnArena pins the definition of FragPeakBytes: best fit
// weighs the free tail, whose size is the arena minus the extent in use, so
// the same trace is placed differently in a larger arena.
func TestFootprintDependsOnArena(t *testing.T) {
	events := []Event{
		{ID: 0, Bytes: 1024},
		{ID: 1, Bytes: 1024},
		{ID: 2, Bytes: 768}, // logical peak 2816: the first arena
		{ID: 2, Free: true}, // tail: 768 at 2048 in the first arena, more in a larger one
		{ID: 0, Free: true}, // hole: 1024 at 0
		// First arena: the 768 tail is the tighter fit, the hole stays whole
		// for ID 4. Larger arena: the hole is the tighter fit, ID 4 no longer
		// fits it and extends the footprint.
		{ID: 3, Bytes: 512},
		{ID: 4, Bytes: 1024},
		{ID: 1, Free: true},
		{ID: 3, Free: true},
		{ID: 4, Free: true},
	}
	var r Replayer
	res := r.Replay(events)
	if res.Arena != 2816 || res.FragPeakBytes != 2816 {
		t.Fatalf("first fitting arena: %+v, want arena and footprint 2816", res)
	}
	if !r.fits(events, 4*2816) {
		t.Fatal("trace does not fit a 4x arena")
	}
	if got := r.a.footprint; got != 3072 {
		t.Fatalf("footprint in a 4x arena %d, want 3072", got)
	}
	if again := r.Replay(events); again != res {
		t.Fatalf("replay after a manual arena: %+v, want %+v", again, res)
	}
}

// TestWarmReplayerPanicsOnMalformedTrace: every check of the one-shot Replay
// holds on a replayer that has already grown its tables past the IDs
// involved, and the replayer works afterwards.
func TestWarmReplayerPanicsOnMalformedTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	warm := randTrace(rng, 64, 400)
	var r Replayer
	want := r.Replay(warm)
	for name, events := range map[string][]Event{
		"free-dead":      {{ID: 1, Bytes: 256}, {ID: 1, Free: true}, {ID: 1, Free: true}},
		"free-never":     {{ID: 7, Free: true}},
		"free-beyond":    {{ID: 1 << 20, Free: true}},
		"double-alloc":   {{ID: 1, Bytes: 256}, {ID: 1, Bytes: 256}},
		"leak":           {{ID: 1, Bytes: 256}},
		"negative-size":  {{ID: 1, Bytes: -1}},
		"negative-id":    {{ID: -1, Bytes: 256}},
		"negative-free":  {{ID: -1, Free: true}},
		"leak-after-use": {{ID: 2, Bytes: 256}, {ID: 3, Bytes: 256}, {ID: 2, Free: true}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			r.Replay(events)
		}()
		if got := r.Replay(warm); got != want {
			t.Fatalf("after %s: replay %+v, want %+v", name, got, want)
		}
	}
}

func TestWarmReplayerAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	events := randTrace(rng, 128, 900)
	var r Replayer
	r.Replay(events)
	if n := testing.AllocsPerRun(20, func() { r.Replay(events) }); n != 0 {
		t.Fatalf("warm replay allocates %v times", n)
	}
}
