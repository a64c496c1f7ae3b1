package bfc_test

import (
	"testing"

	"oooback/internal/bfc"
	"oooback/internal/core"
	"oooback/internal/graph"
	"oooback/internal/models"
)

// TestZooSweepTracesMatchReference replays the traffic the planner sends the
// allocator — every zoo model's L+1 sweep schedules (each reverse-first-k
// depth and the memory list schedule) — through Replay, a warm Replayer and
// the scan-everything reference, which must agree on every ReplayResult
// field. The same traces, applied again in the arena the replay settled on,
// never meet more than 3 free extents at an allocation: the size the free
// list is built for.
func TestZooSweepTracesMatchReference(t *testing.T) {
	var warm bfc.Replayer
	traces, doubled, allocs, extents, most := 0, 0, 0, 0, 0
	for _, e := range models.Zoo() {
		m := e.Build(models.V100Profile())
		L := len(m.Layers)
		for k := 0; k <= L; k++ {
			s := core.MemSchedule(m)
			if k < L {
				s = graph.ReverseFirstK(L, k)
			}
			events := graph.TraceAllocs(m, s).Events
			got := bfc.Replay(events)
			if w := warm.Replay(events); w != got {
				t.Fatalf("%s k=%d: warm replayer %+v, fresh %+v", e.Name, k, w, got)
			}
			if want := bfc.RefReplay(events); got != want {
				t.Fatalf("%s k=%d: replay %+v, reference %+v", e.Name, k, got, want)
			}
			traces++
			if got.Arena > (got.LogicalPeakBytes+255)/256*256 {
				doubled++
			}

			scanned := bfc.FreeExtentsAtAllocs(events, got.Arena)
			if scanned == nil {
				t.Fatalf("%s k=%d: an allocation does not fit the arena the replay fit", e.Name, k)
			}
			for _, n := range scanned {
				allocs, extents, most = allocs+1, extents+n, max(most, n)
			}
		}
	}
	if doubled == 0 {
		t.Fatal("no zoo trace needed an arena doubling: the restart path went untested")
	}
	if most > 3 {
		t.Fatalf("an allocation met %d free extents; the zoo's traffic was measured at ≤ 3", most)
	}
	t.Logf("%d traces (%d doubled), %d allocations, free extents at an allocation: max %d, mean %.2f",
		traces, doubled, allocs, most, float64(extents)/float64(allocs))
}
