package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"oooback/internal/graph"
	"oooback/internal/models"
)

// randomIterCosts builds a randomized cost vector: a mix of zero and nonzero
// syncs, clustered ready times (to exercise ties), occasional aggregation
// lag, and random priorities.
func randomIterCosts(rng *rand.Rand, L int) (IterCosts, func(int) int) {
	c := IterCosts{
		F:     make([]time.Duration, L),
		DO:    make([]time.Duration, L),
		DW:    make([]time.Duration, L),
		SyncW: make([]time.Duration, L),
	}
	if rng.Intn(2) == 0 {
		c.SyncLag = make([]time.Duration, L)
	}
	for i := 0; i < L; i++ {
		c.F[i] = time.Duration(rng.Intn(20)) * time.Microsecond
		// Zero δO/δW are allowed and produce equal ready times across layers.
		c.DO[i] = time.Duration(rng.Intn(8)) * time.Microsecond
		c.DW[i] = time.Duration(rng.Intn(8)) * time.Microsecond
		if rng.Intn(4) > 0 { // 25% of layers skip synchronization
			c.SyncW[i] = time.Duration(1+rng.Intn(30)) * time.Microsecond
		}
		if c.SyncLag != nil {
			c.SyncLag[i] = time.Duration(rng.Intn(40)) * time.Microsecond
		}
	}
	// Few distinct priority classes so ties are common; fixed per layer.
	prios := make([]int, L+1)
	nclass := 1 + rng.Intn(4)
	for i := 1; i <= L; i++ {
		prios[i] = rng.Intn(nclass)
	}
	return c, func(layer int) int { return prios[layer] }
}

// randomBackwardOrder produces a random legal backward schedule: δO_L..δO_1
// interleaved with each δW_i placed uniformly anywhere after δO_{i+1}.
func randomBackwardOrder(rng *rand.Rand, L int) graph.BackwardSchedule {
	s := make(graph.BackwardSchedule, 0, 2*L)
	pendingDW := []int{L} // δW_L is legal immediately (loss gradient exists)
	for i := L; i >= 1; i-- {
		// Emit a random subset of currently-legal δW before the next δO.
		for len(pendingDW) > 0 && rng.Intn(2) == 0 {
			j := rng.Intn(len(pendingDW))
			s = append(s, graph.Op{Kind: graph.WeightGrad, Layer: pendingDW[j]})
			pendingDW = append(pendingDW[:j], pendingDW[j+1:]...)
		}
		s = append(s, graph.Op{Kind: graph.OutGrad, Layer: i})
		if i > 1 {
			pendingDW = append(pendingDW, i-1)
		}
	}
	// Shuffle the leftovers, then flush them.
	rng.Shuffle(len(pendingDW), func(a, b int) { pendingDW[a], pendingDW[b] = pendingDW[b], pendingDW[a] })
	for _, j := range pendingDW {
		s = append(s, graph.Op{Kind: graph.WeightGrad, Layer: j})
	}
	return s
}

// diffChannel runs the scratch's channel on the arrival queue it holds and
// fails unless completion times and service segments equal the naive
// reference's on the same ready times.
func diffChannel(t *testing.T, label string, s *IterScratch, c IterCosts, ready []time.Duration, prio func(int) int, preemptive bool) {
	t.Helper()
	wantDone, wantSegs := commTimelineNaive(c, ready, prio, preemptive)
	gotDone, gotSegs := s.commTimeline(c, preemptive)
	if !slices.Equal(gotDone, wantDone) {
		t.Fatalf("%s (L=%d preemptive=%v): SyncDone\n got: %v\nwant: %v", label, c.Layers(), preemptive, gotDone, wantDone)
	}
	if !slices.Equal(gotSegs, wantSegs) {
		t.Fatalf("%s (L=%d preemptive=%v): segments\n got: %v\nwant: %v", label, c.Layers(), preemptive, gotSegs, wantSegs)
	}
}

// dwReady recomputes, independently of the simulator, when each layer's δW
// completes under the schedule.
func dwReady(c IterCosts, order graph.BackwardSchedule) []time.Duration {
	ready := make([]time.Duration, c.Layers()+1)
	var t time.Duration
	for _, op := range order {
		switch op.Kind {
		case graph.OutGrad:
			t += c.DO[op.Layer-1]
		case graph.WeightGrad:
			t += c.DW[op.Layer-1]
			ready[op.Layer] = t
		}
	}
	return ready
}

// TestCommTimelineMatchesNaiveReference is the differential test of the
// channel against the retained O(L²) reference: identical completion times
// and identical service segments over randomized costs, priorities, ready
// times, and both channel disciplines. The queue is filled in layer order
// from clustered random ready times, so it almost always needs the sort.
// Each trial's few priority classes are also mapped onto negative, sparse
// (layer × 10⁶) and ≥ 2³²-wide priorities, and each layer is also given a
// class of its own; the sparse and wide ones make the channel rank its
// priorities before it sizes its bucket queue. Spreads of exactly 4n − 1 and
// 4n over n queued tasks sit either side of that ranking threshold, and a
// preemption chain whose urgent class empties and refills between arrivals
// reuses a bucket after draining it.
func TestCommTimelineMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prioMaps := []struct {
		name string
		fn   func(layer, class int) int
	}{
		{"classes", func(_, class int) int { return class }},
		{"negative", func(_, class int) int { return -1 - class }},
		{"sparse", func(layer, class int) int { return (class + 1) * layer * 1_000_000 }},
		{"wide", func(layer, class int) int { return class<<40 - layer }},
		{"extremes", func(_, class int) int { return [...]int{math.MinInt64, math.MaxInt64, 0, -1}[class] }},
		{"singletons", func(layer, _ int) int { return layer }},
		{"singletons-descending", func(layer, _ int) int { return -3 * layer }},
	}
	var scratch IterScratch
	for trial := 0; trial < 500; trial++ {
		L := 1 + rng.Intn(60)
		c, class := randomIterCosts(rng, L)
		ready := make([]time.Duration, L+1)
		for i := 1; i <= L; i++ {
			// Clustered ready times: many exact collisions.
			ready[i] = time.Duration(rng.Intn(10)) * 5 * time.Microsecond
		}
		for _, pm := range prioMaps {
			prio := func(layer int) int { return pm.fn(layer, class(layer)) }
			scratch.tasks = scratch.tasks[:0]
			for i := 1; i <= L; i++ {
				scratch.addSync(i, prio(i), ready[i], c.SyncW[i-1])
			}
			diffChannel(t, fmt.Sprintf("trial %d %s", trial, pm.name), &scratch, c, ready, prio, trial%2 == 0)
		}

		// The ranking threshold: the first and last queued layers take the
		// extreme priorities 0 and spread, the rest a class in between.
		var queued []int
		for i := 1; i <= L; i++ {
			if c.SyncW[i-1] > 0 {
				queued = append(queued, i)
			}
		}
		if len(queued) < 2 {
			continue
		}
		n := len(queued)
		for _, spread := range []int{4*n - 1, 4 * n} {
			prios := make([]int, L+1)
			for _, i := range queued {
				prios[i] = rng.Intn(spread + 1)
			}
			prios[queued[0]], prios[queued[n-1]] = 0, spread
			prio := func(layer int) int { return prios[layer] }
			scratch.tasks, scratch.ranks = scratch.tasks[:0], scratch.ranks[:0]
			for i := 1; i <= L; i++ {
				scratch.addSync(i, prio(i), ready[i], c.SyncW[i-1])
			}
			diffChannel(t, fmt.Sprintf("trial %d spread %d over %d tasks", trial, spread, n), &scratch, c, ready, prio, trial%2 == 0)
			if ranked := len(scratch.ranks) > 0; ranked != (spread >= 4*n) {
				t.Fatalf("trial %d: spread %d over %d tasks ranked=%v", trial, spread, n, ranked)
			}
		}
	}

	// An urgent class that empties and refills inside a preemption chain:
	// odd layers are long, lax syncs, even layers short urgent ones, one
	// arrival per microsecond. Every urgent sync finishes before the next
	// urgent arrival, so its bucket drains and is refilled each time, while
	// the lax ones are cut at every arrival.
	for _, L := range []int{3, 16, 65} {
		c := IterCosts{
			F:     make([]time.Duration, L),
			DO:    make([]time.Duration, L),
			DW:    make([]time.Duration, L),
			SyncW: make([]time.Duration, L),
		}
		ready := make([]time.Duration, L+1)
		for i := 1; i <= L; i++ {
			c.SyncW[i-1] = time.Duration(2*L) * time.Microsecond
			if i%2 == 0 {
				c.SyncW[i-1] = time.Duration(100+rng.Intn(900)) * time.Nanosecond
			}
			ready[i] = time.Duration(i) * time.Microsecond
		}
		prio := func(layer int) int { return 1 - layer%2 }
		for _, preemptive := range []bool{false, true} {
			scratch.tasks = scratch.tasks[:0]
			for i := 1; i <= L; i++ {
				scratch.addSync(i, prio(i), ready[i], c.SyncW[i-1])
			}
			diffChannel(t, fmt.Sprintf("refilling urgent class, L=%d", L), &scratch, c, ready, prio, preemptive)
			if preemptive && len(scratch.segs) <= L {
				t.Fatalf("refilling urgent class, L=%d: %d segments, want the lax syncs cut", L, len(scratch.segs))
			}
		}
	}

	// Long preemption chains: long syncs arriving one per microsecond, each
	// more urgent than those before it (or than those of its sawtooth
	// tooth), so a preemptive channel cuts a task at every later arrival
	// and holds up to L cut tasks at once.
	chains := []struct {
		name string
		prio func(int) int
	}{
		{"rising", func(layer int) int { return -layer }},
		{"sawtooth", func(layer int) int { return -(layer % 8) }},
	}
	for _, L := range []int{2, 17, 64, 200} {
		c := IterCosts{
			F:     make([]time.Duration, L),
			DO:    make([]time.Duration, L),
			DW:    make([]time.Duration, L),
			SyncW: make([]time.Duration, L),
		}
		ready := make([]time.Duration, L+1)
		for i := 1; i <= L; i++ {
			c.SyncW[i-1] = time.Duration(L+rng.Intn(L)) * time.Microsecond
			ready[i] = time.Duration(i) * time.Microsecond
		}
		for _, ch := range chains {
			for _, preemptive := range []bool{false, true} {
				scratch.tasks = scratch.tasks[:0]
				for i := 1; i <= L; i++ {
					scratch.addSync(i, ch.prio(i), ready[i], c.SyncW[i-1])
				}
				diffChannel(t, "chain "+ch.name, &scratch, c, ready, ch.prio, preemptive)
				if ch.name == "rising" && preemptive && len(scratch.segs) != 2*L-1 {
					t.Fatalf("rising chain, L=%d: %d segments, want every arrival to cut one (%d)", L, len(scratch.segs), 2*L-1)
				}
			}
		}
	}
}

// TestCommTimelineCases covers the channel's three ways of serving by
// construction: one priority class and one class per layer (plus a
// two-class mix), each preemptive and run-to-completion, over cost vectors
// with exact ready-time ties from zero-cost ops, layers without a
// synchronization and aggregation lag, under schedules inside the
// reverse-first-k family and outside it. The queue is filled by the
// simulator's own backward pass, and both outcomes of its "already in
// arrival order" check must occur.
func TestCommTimelineCases(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	prios := []struct {
		name string
		fn   func(int) int
	}{
		{"one-class", func(int) int { return 0 }},
		{"one-class-nonzero", func(int) int { return 7 }},
		{"prio=layer", func(l int) int { return l }},
		{"two-class", func(l int) int { return l % 2 }},
	}
	costs := []struct {
		name string
		edit func(c *IterCosts, L int)
	}{
		{"plain", func(*IterCosts, int) {}},
		{"zero-cost-ties", func(c *IterCosts, L int) {
			// A run of free layers: their δW complete at one instant.
			for i := L / 4; i < L/4+max(2, L/3) && i < L; i++ {
				c.DO[i], c.DW[i] = 0, 0
			}
		}},
		{"no-sync-layers", func(c *IterCosts, L int) {
			for i := 0; i < L; i += 3 {
				c.SyncW[i] = 0
			}
		}},
		{"sync-lag", func(c *IterCosts, L int) {
			c.SyncLag = make([]time.Duration, L)
			for i := range c.SyncLag {
				c.SyncLag[i] = time.Duration(rng.Intn(40)) * time.Microsecond
			}
		}},
	}
	var s IterScratch
	sorted, unsorted := 0, 0
	for _, L := range []int{1, 2, 7, 24, 61} {
		m := &models.Model{Name: "diff", Batch: 1, Layers: make([]models.Layer, L)}
		for i := range m.Layers {
			m.Layers[i] = models.Layer{
				ActBytes:  int64(1+rng.Intn(64)) << 10,
				OutBytes:  int64(1+rng.Intn(64)) << 10,
				WorkBytes: int64(rng.Intn(16)) << 10,
			}
		}
		orders := []struct {
			name  string
			order graph.BackwardSchedule
		}{
			{"reverse-first-0", graph.ReverseFirstK(L, 0)},
			{"reverse-first-L/2", graph.ReverseFirstK(L, L/2)},
			{"reverse-first-L", graph.ReverseFirstK(L, L)},
			{"conventional", graph.Conventional(L)},
			{"mem-list", MemSchedule(m)},
			{"random-a", randomBackwardOrder(rng, L)},
			{"random-b", randomBackwardOrder(rng, L)},
		}
		for _, cv := range costs {
			c := IterCosts{
				F:     make([]time.Duration, L),
				DO:    make([]time.Duration, L),
				DW:    make([]time.Duration, L),
				SyncW: make([]time.Duration, L),
			}
			for i := 0; i < L; i++ {
				c.F[i] = time.Duration(1+rng.Intn(20)) * time.Microsecond
				c.DO[i] = time.Duration(1+rng.Intn(8)) * time.Microsecond
				c.DW[i] = time.Duration(1+rng.Intn(8)) * time.Microsecond
				c.SyncW[i] = time.Duration(1+rng.Intn(30)) * time.Microsecond
			}
			cv.edit(&c, L)
			for _, o := range orders {
				for _, pr := range prios {
					for _, preemptive := range []bool{false, true} {
						s.backward(c, o.order, pr.fn, nil)
						if slices.IsSortedFunc(s.tasks, byArrival) {
							sorted++
						} else {
							unsorted++
						}
						label := fmt.Sprintf("%s/%s/%s", cv.name, o.name, pr.name)
						diffChannel(t, label, &s, c, dwReady(c, o.order), pr.fn, preemptive)
					}
				}
			}
		}
	}
	if sorted == 0 || unsorted == 0 {
		t.Fatalf("arrival queue filled in order %d times and out of order %d times; the cases must cover both", sorted, unsorted)
	}
}

// TestSimulateIterationScratchMatchesFresh checks the full iteration
// simulator end to end: a reused scratch must produce the same makespan,
// idle time, and sync completions as fresh package-level calls, over random
// legal backward orders (which also exercises the scratch-based schedule
// validation), and the idle time must agree with one recomputed from the
// naive channel.
func TestSimulateIterationScratchMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var scratch IterScratch
	for trial := 0; trial < 300; trial++ {
		L := 1 + rng.Intn(40)
		c, prio := randomIterCosts(rng, L)
		order := randomBackwardOrder(rng, L)
		preemptive := trial%2 == 1

		want := SimulateIteration(c, order, prio, preemptive)
		got := scratch.SimulateIteration(c, order, prio, preemptive)

		if got.Makespan != want.Makespan || got.BackwardEnd != want.BackwardEnd || got.GPUIdle != want.GPUIdle {
			t.Fatalf("trial %d: scratch result {%v %v %v} != fresh {%v %v %v}",
				trial, got.Makespan, got.BackwardEnd, got.GPUIdle,
				want.Makespan, want.BackwardEnd, want.GPUIdle)
		}
		for i := range want.SyncDone {
			if got.SyncDone[i] != want.SyncDone[i] {
				t.Fatalf("trial %d: SyncDone[%d] = %v, want %v", trial, i, got.SyncDone[i], want.SyncDone[i])
			}
		}

		// Recompute idle from the naive channel independently.
		dwDone := make([]time.Duration, L+1)
		var bt time.Duration
		for _, op := range order {
			switch op.Kind {
			case graph.OutGrad:
				bt += c.DO[op.Layer-1]
			case graph.WeightGrad:
				bt += c.DW[op.Layer-1]
				dwDone[op.Layer] = bt
			}
		}
		done, _ := commTimelineNaive(c, dwDone, prio, preemptive)
		var idle time.Duration
		ft := bt
		for i := 1; i <= L; i++ {
			if done[i] > ft {
				idle += done[i] - ft
				ft = done[i]
			}
			ft += c.F[i-1]
		}
		if got.GPUIdle != idle {
			t.Fatalf("trial %d: GPUIdle = %v, naive recomputation %v", trial, got.GPUIdle, idle)
		}
	}
}

// TestSimulateIterationWarmScratchAllocsZero locks in the tentpole: a warm
// SimulateIteration probe through a scratch performs zero heap allocations.
func TestSimulateIterationWarmScratchAllocsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	L := 80
	c, prio := randomIterCosts(rng, L)
	order := graph.Conventional(L)
	var s IterScratch
	s.SimulateIteration(c, order, prio, true) // warm-up
	for _, preemptive := range []bool{true, false} {
		preemptive := preemptive
		avg := testing.AllocsPerRun(200, func() {
			s.SimulateIteration(c, order, prio, preemptive)
		})
		if avg != 0 {
			t.Fatalf("warm SimulateIteration (preemptive=%v) allocated %.1f per run, want 0", preemptive, avg)
		}
	}
	// The overlapped variant must be allocation-free too.
	overlapped := func(layer int) bool { return layer%2 == 0 }
	s.SimulateIterationOverlapped(c, order, prio, true, overlapped)
	avg := testing.AllocsPerRun(200, func() {
		s.SimulateIterationOverlapped(c, order, prio, true, overlapped)
	})
	if avg != 0 {
		t.Fatalf("warm SimulateIterationOverlapped allocated %.1f per run, want 0", avg)
	}
}
