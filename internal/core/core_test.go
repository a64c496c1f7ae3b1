package core

import (
	"testing"
	"testing/quick"
	"time"

	"oooback/internal/graph"
	"oooback/internal/models"
)

func TestFastForwardValid(t *testing.T) {
	for _, L := range []int{1, 4, 16} {
		s := FastForward(L)
		if err := s.Validate(L); err != nil {
			t.Fatalf("L=%d: %v", L, err)
		}
		// All δO precede all δW.
		for i := 0; i < L; i++ {
			if s[i].Kind != graph.OutGrad {
				t.Fatalf("pos %d = %v, want OutGrad", i, s[i])
			}
			if s[L+i].Kind != graph.WeightGrad {
				t.Fatalf("pos %d = %v, want WeightGrad", L+i, s[L+i])
			}
		}
	}
}

func TestReverseFirstKOrder(t *testing.T) {
	m := models.FFNN(models.V100Profile(), 5, 256, 32)
	s := ReverseFirstK(m, 3, 0)
	if err := s.Validate(5); err != nil {
		t.Fatal(err)
	}
	want := graph.BackwardSchedule{
		{Kind: graph.WeightGrad, Layer: 5}, {Kind: graph.OutGrad, Layer: 5},
		{Kind: graph.WeightGrad, Layer: 4}, {Kind: graph.OutGrad, Layer: 4},
		{Kind: graph.OutGrad, Layer: 3}, {Kind: graph.OutGrad, Layer: 2},
		{Kind: graph.OutGrad, Layer: 1},
		{Kind: graph.WeightGrad, Layer: 1}, {Kind: graph.WeightGrad, Layer: 2},
		{Kind: graph.WeightGrad, Layer: 3},
	}
	if len(s) != len(want) {
		t.Fatalf("len = %d, want %d", len(s), len(want))
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("pos %d: %v, want %v\nfull: %v", i, s[i], want[i], s)
		}
	}
}

func TestReverseFirstKClampsToMemory(t *testing.T) {
	m := models.FFNN(models.V100Profile(), 16, 1024, 64)
	unconstrained := graph.PeakMemory(m, ReverseFirstK(m, 16, 0))
	conv := graph.PeakMemory(m, ReverseFirstK(m, 0, 0))
	if unconstrained <= conv {
		t.Fatalf("full deferral should raise peak: %d vs %d", unconstrained, conv)
	}
	budget := conv + (unconstrained-conv)/4
	s := ReverseFirstK(m, 16, budget)
	if got := graph.PeakMemory(m, s); got > budget {
		t.Fatalf("peak %d exceeds budget %d", got, budget)
	}
	// The clamp must not collapse to zero deferral when the budget allows some.
	if k := countDeferred(s, 16); k == 0 {
		t.Fatal("memory clamp collapsed k to 0 despite slack budget")
	}
}

// TestZooPeakMonotoneInK pins what ClampK's comment relies on: on every zoo
// model and GPU profile the peak of reverse first-k is nondecreasing in k, so
// the depths that fit a budget form a prefix and the first fit below k is the
// largest one. The WorkBytes transient keeps this from being a theorem; a
// model that breaks it fails here rather than silently changing max_k.
func TestZooPeakMonotoneInK(t *testing.T) {
	profiles := []models.GPUProfile{models.V100Profile(), models.TitanXPProfile(), models.P100Profile()}
	for _, e := range models.Zoo() {
		for _, p := range profiles {
			m := e.Build(p)
			L := len(m.Layers)
			var prev int64
			for k := 0; k <= L; k++ {
				peak := graph.PeakMemory(m, graph.ReverseFirstK(L, k))
				if peak < prev {
					t.Fatalf("%s on %s: peak falls from %d at k=%d to %d at k=%d", e.Name, p.Name, prev, k-1, peak, k)
				}
				prev = peak
			}
		}
	}
}

// countDeferred counts δW ops appearing after δO_1 (i.e. the reversed tail).
func countDeferred(s graph.BackwardSchedule, L int) int {
	seenDO1 := false
	n := 0
	for _, op := range s {
		if op.Kind == graph.OutGrad && op.Layer == 1 {
			seenDO1 = true
			continue
		}
		if seenDO1 && op.Kind == graph.WeightGrad {
			n++
		}
	}
	return n
}

func TestSearchKFindsConcaveMax(t *testing.T) {
	L := 50
	peak := 17
	calls := 0
	measure := func(k int) float64 {
		calls++
		d := k - peak
		return 1000 - float64(d*d)
	}
	got := SearchK(L, measure)
	if got < peak-1 || got > peak+1 {
		t.Fatalf("SearchK = %d, want ≈ %d", got, peak)
	}
	if calls > 2*L {
		t.Fatalf("SearchK made %d calls, want far fewer than exhaustive", calls)
	}
}

func TestSearchKEdge(t *testing.T) {
	if got := SearchK(1, func(int) float64 { return 1 }); got != 0 {
		t.Fatalf("L=1: got %d", got)
	}
	// Monotone increasing: best is near L-1.
	got := SearchK(40, func(k int) float64 { return float64(k) })
	if got < 35 {
		t.Fatalf("monotone: got %d, want near 39", got)
	}
}

func TestAllocations(t *testing.T) {
	mod := ModuloAllocation(8, 2, 1)
	for i := range mod {
		if mod[i] != i%2 {
			t.Fatalf("modulo = %v", mod)
		}
	}
	grouped := ModuloAllocation(8, 2, 2)
	want := []int{0, 0, 1, 1, 0, 0, 1, 1}
	for i := range want {
		if grouped[i] != want[i] {
			t.Fatalf("grouped modulo = %v, want %v", grouped, want)
		}
	}
}

func TestMultiRegionJointGreedy(t *testing.T) {
	// Two regions; layer 9's δW speeds up most in region 1, layer 8's in
	// region 0. Region budgets admit one kernel each; the third overflows.
	in := JointInput{
		TMain:    []time.Duration{10, 10},
		Layers:   []int{9, 8, 7},
		Earliest: map[int]int{9: 0, 8: 0, 7: 1},
		TSub:     func(l, r int) time.Duration { return 10 },
		Speedup: func(l, r int) float64 {
			switch {
			case l == 9 && r == 1:
				return 1.9
			case l == 8 && r == 0:
				return 1.5
			default:
				return 1.1
			}
		},
	}
	out := MultiRegionJoint(in)
	if len(out.Regions[1]) != 1 || out.Regions[1][0] != 9 {
		t.Fatalf("region 1 = %v, want [9]", out.Regions[1])
	}
	if len(out.Regions[0]) != 1 || out.Regions[0][0] != 8 {
		t.Fatalf("region 0 = %v, want [8]", out.Regions[0])
	}
	if len(out.Overflow) != 1 || out.Overflow[0] != 7 {
		t.Fatalf("overflow = %v, want [7]", out.Overflow)
	}
}

func TestMultiRegionJointRespectsEarliest(t *testing.T) {
	in := JointInput{
		TMain:    []time.Duration{100, 100},
		Layers:   []int{5},
		Earliest: map[int]int{5: 1}, // may not run in region 0
		TSub:     func(l, r int) time.Duration { return 10 },
		Speedup:  func(l, r int) float64 { return 1.5 },
	}
	out := MultiRegionJoint(in)
	if len(out.Regions[0]) != 0 {
		t.Fatalf("region 0 = %v, want empty", out.Regions[0])
	}
	if len(out.Regions[1]) != 1 {
		t.Fatalf("region 1 = %v, want [5]", out.Regions[1])
	}
}

func TestPairSpeedupBounds(t *testing.T) {
	// Paper's R5 case: 448-block δW under low-occupancy main kernels.
	s := PairSpeedup(400, 448, 1520, 100*time.Microsecond, 50*time.Microsecond)
	if s <= 1.3 || s > 2 {
		t.Fatalf("low-occupancy speedup = %v, want substantial", s)
	}
	// R2 case: main at capacity — only the tail slots help (the paper's R5
	// discussion: ~10% from backfilling retiring blocks).
	s2 := PairSpeedup(1520, 448, 1520, 100*time.Microsecond, 50*time.Microsecond)
	if s2 < 1.02 || s2 > 1.4 {
		t.Fatalf("saturated speedup = %v, want a modest tail-slot gain", s2)
	}
	if s2 >= s {
		t.Fatalf("saturated speedup %v should trail the low-occupancy case %v", s2, s)
	}
	if s3 := PairSpeedup(100, 100, 1520, 0, time.Microsecond); s3 != 1 {
		t.Fatalf("degenerate speedup = %v, want 1", s3)
	}
}

func unitCosts(L int, sync time.Duration) IterCosts {
	c := IterCosts{
		F:     make([]time.Duration, L),
		DO:    make([]time.Duration, L),
		DW:    make([]time.Duration, L),
		SyncW: make([]time.Duration, L),
	}
	for i := range c.F {
		c.F[i] = time.Millisecond
		c.DO[i] = time.Millisecond
		c.DW[i] = time.Millisecond
		c.SyncW[i] = sync
	}
	return c
}

func TestSimulateIterationNoSync(t *testing.T) {
	// Without syncs the makespan is pure compute: L·(F+dO+dW).
	L := 5
	c := unitCosts(L, 0)
	res := SimulateIteration(c, graph.Conventional(L), nil, false)
	if want := time.Duration(3*L) * time.Millisecond; res.Makespan != want {
		t.Fatalf("makespan = %v, want %v", res.Makespan, want)
	}
	if res.GPUIdle != 0 {
		t.Fatalf("idle = %v, want 0", res.GPUIdle)
	}
}

// TestFig4Ordering reproduces the qualitative result of Figure 4: ooo
// scheduling (reverse first-k) beats prioritized communication, which beats
// conventional FIFO wait-free backprop. The instance mirrors a CNN: the first
// layer's sync is the critical one (needed by F_1 immediately) and the last
// layer (classifier) carries the biggest parameter tensor.
func TestFig4Ordering(t *testing.T) {
	L := 5
	c := unitCosts(L, 0)
	c.SyncW = []time.Duration{4 * time.Millisecond, time.Millisecond, time.Millisecond,
		time.Millisecond, 6 * time.Millisecond}
	m := models.FFNN(models.V100Profile(), L, 256, 32)

	fifoPrio := func(layer int) int { return 0 }
	layerPrio := func(layer int) int { return layer }

	conv := SimulateIteration(c, graph.Conventional(L), fifoPrio, false)
	prio := SimulateIteration(c, graph.Conventional(L), layerPrio, true)
	ooo := SimulateIteration(c, ReverseFirstK(m, 3, 0), layerPrio, true)

	if !(ooo.Makespan <= prio.Makespan && prio.Makespan <= conv.Makespan) {
		t.Fatalf("ordering violated: ooo=%v prio=%v conv=%v",
			ooo.Makespan, prio.Makespan, conv.Makespan)
	}
	if ooo.Makespan >= conv.Makespan {
		t.Fatalf("ooo should strictly beat conventional: %v vs %v", ooo.Makespan, conv.Makespan)
	}
	if ooo.GPUIdle >= conv.GPUIdle {
		t.Fatalf("ooo idle %v not below conventional idle %v", ooo.GPUIdle, conv.GPUIdle)
	}
}

func TestPreemptiveCommBeatsNonPreemptive(t *testing.T) {
	// Big low-priority sync in flight when an urgent one arrives: preemption
	// must not delay the urgent sync's forward gate.
	L := 3
	c := unitCosts(L, 0)
	c.SyncW[2] = 50 * time.Millisecond // layer 3, ready first, low priority
	c.SyncW[0] = time.Millisecond      // layer 1, urgent
	layerPrio := func(layer int) int { return layer }
	m := models.FFNN(models.V100Profile(), L, 256, 32)
	sched := ReverseFirstK(m, 0, 0)
	np := SimulateIteration(c, sched, layerPrio, false)
	pe := SimulateIteration(c, sched, layerPrio, true)
	if pe.Makespan >= np.Makespan {
		t.Fatalf("preemptive %v not faster than non-preemptive %v", pe.Makespan, np.Makespan)
	}
}

func TestListScheduleValidAndPrioritizesCriticalSync(t *testing.T) {
	L := 10
	c := unitCosts(L, 5*time.Millisecond)
	s := ListSchedule(c)
	if err := s.Validate(L); err != nil {
		t.Fatal(err)
	}
	// δW_1 carries the most critical synchronization: it must be the first
	// weight gradient executed after the δO chain completes (in conventional
	// order it is merely the last δW, so its sync starts at the very end of a
	// fully serialized backward pass).
	posDO1 := -1
	firstTailDW := 0
	for p, op := range s {
		if op.Kind == graph.OutGrad && op.Layer == 1 {
			posDO1 = p
		}
		if posDO1 >= 0 && p > posDO1 && op.Kind == graph.WeightGrad && firstTailDW == 0 {
			firstTailDW = op.Layer
		}
	}
	if firstTailDW != 1 {
		t.Fatalf("first deferred dW is layer %d, want 1\n%v", firstTailDW, s)
	}
}

func TestListScheduleBeatsConventionalUnderSync(t *testing.T) {
	L := 10
	c := unitCosts(L, 5*time.Millisecond)
	prio := func(layer int) int { return layer }
	conv := SimulateIteration(c, graph.Conventional(L), prio, true)
	ls := SimulateIteration(c, ListSchedule(c), prio, true)
	if ls.Makespan > conv.Makespan {
		t.Fatalf("list schedule %v worse than conventional %v", ls.Makespan, conv.Makespan)
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(time.Second, 512); got != 512 {
		t.Fatalf("Throughput = %v, want 512", got)
	}
	if got := Throughput(0, 512); got != 0 {
		t.Fatalf("Throughput(0) = %v, want 0", got)
	}
}

// Property: ReverseFirstK validates for every k, and deferral count equals
// min(k, L).
func TestReverseFirstKValidProperty(t *testing.T) {
	m := models.FFNN(models.V100Profile(), 12, 256, 32)
	f := func(kRaw uint8) bool {
		k := int(kRaw % 14)
		s := ReverseFirstK(m, k, 0)
		if err := s.Validate(12); err != nil {
			return false
		}
		want := k
		if want > 12 {
			want = 12
		}
		return countDeferred(s, 12) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: makespan is bounded below by total compute and by the §2
// structure: it is at least backward + forward compute.
func TestMakespanLowerBoundProperty(t *testing.T) {
	f := func(sync uint16, kRaw uint8) bool {
		L := 8
		c := unitCosts(L, time.Duration(sync)*time.Microsecond)
		m := models.FFNN(models.V100Profile(), L, 256, 32)
		k := int(kRaw) % (L + 1)
		res := SimulateIteration(c, ReverseFirstK(m, k, 0), func(l int) int { return l }, true)
		var compute time.Duration
		for i := 0; i < L; i++ {
			compute += c.F[i] + c.DO[i] + c.DW[i]
		}
		return res.Makespan >= compute
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: with zero sync times, every legal order yields the same makespan
// (compute is conserved by reordering) — the semantics-preservation
// counterpart at the performance level.
func TestReorderingConservesComputeProperty(t *testing.T) {
	f := func(kRaw uint8) bool {
		L := 8
		c := unitCosts(L, 0)
		m := models.FFNN(models.V100Profile(), L, 256, 32)
		k := int(kRaw) % (L + 1)
		conv := SimulateIteration(c, graph.Conventional(L), nil, false)
		ooo := SimulateIteration(c, ReverseFirstK(m, k, 0), nil, false)
		ff := SimulateIteration(c, FastForward(L), nil, false)
		return conv.Makespan == ooo.Makespan && conv.Makespan == ff.Makespan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
