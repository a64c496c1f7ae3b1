package graph

import (
	"math/rand"
	"testing"

	"oooback/internal/models"
)

// randModel builds a model with random byte sizes, including occasional
// zero-byte tensors to exercise the no-event paths of the trace.
func randModel(rng *rand.Rand, L int) *models.Model {
	m := &models.Model{Name: "rand", Layers: make([]models.Layer, L)}
	bytes := func() int64 {
		if rng.Intn(8) == 0 {
			return 0
		}
		return int64(rng.Intn(1 << 20))
	}
	for i := range m.Layers {
		m.Layers[i] = models.Layer{
			ActBytes:  bytes(),
			OutBytes:  bytes(),
			WorkBytes: bytes(),
		}
	}
	return m
}

// randSchedule emits a random legal backward schedule: at each step one of
// the ready ops (the next δO in the chain, or any unissued δW whose input
// gradient exists) is chosen uniformly.
func randSchedule(rng *rand.Rand, L int) BackwardSchedule {
	s := make(BackwardSchedule, 0, 2*L)
	nextDO := L
	doneDW := make([]bool, L+2)
	for len(s) < 2*L {
		var ready []Op
		if nextDO >= 1 {
			ready = append(ready, Op{Kind: OutGrad, Layer: nextDO})
		}
		for i := nextDO; i <= L; i++ {
			if i >= 1 && !doneDW[i] {
				ready = append(ready, Op{Kind: WeightGrad, Layer: i})
			}
		}
		op := ready[rng.Intn(len(ready))]
		s = append(s, op)
		if op.Kind == OutGrad {
			nextDO--
		} else {
			doneDW[op.Layer] = true
		}
	}
	return s
}

// schedules returns a representative schedule family for one model.
func schedules(rng *rand.Rand, L int) []BackwardSchedule {
	out := []BackwardSchedule{
		Conventional(L),
		ReverseFirstK(L, 0),
		ReverseFirstK(L, L/2),
		ReverseFirstK(L, L),
	}
	for i := 0; i < 4; i++ {
		out = append(out, randSchedule(rng, L))
	}
	return out
}

// TestTraceAllocsMatchesMemoryProfile is the trace↔profile differential: the
// running live-byte sum of the trace at each op boundary must equal
// MemoryProfile[p], minus the WorkBytes transient for δW positions (the
// trace books the workspace free inside the op; the profile charges it at
// the boundary).
func TestTraceAllocsMatchesMemoryProfile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		L := 1 + rng.Intn(24)
		m := randModel(rng, L)
		for _, s := range schedules(rng, L) {
			prof := MemoryProfile(m, s)
			tr := TraceAllocs(m, s)

			live := map[int]int64{}
			var sum int64
			apply := func(ev AllocEvent) {
				if ev.Free {
					sz, ok := live[ev.ID]
					if !ok {
						t.Fatalf("L=%d: free of dead id %d", L, ev.ID)
					}
					delete(live, ev.ID)
					sum -= sz
					return
				}
				if _, ok := live[ev.ID]; ok {
					t.Fatalf("L=%d: double alloc of id %d", L, ev.ID)
				}
				if ev.Bytes <= 0 {
					t.Fatalf("L=%d: zero/negative alloc of id %d", L, ev.ID)
				}
				live[ev.ID] = ev.Bytes
				sum += ev.Bytes
			}
			for _, ev := range tr.Events[:tr.Init] {
				apply(ev)
			}
			start := tr.Init
			for p, op := range s {
				for _, ev := range tr.Events[start:tr.OpEnd[p]] {
					apply(ev)
				}
				start = tr.OpEnd[p]
				want := prof[p]
				if op.Kind == WeightGrad {
					want -= m.Layers[op.Layer-1].WorkBytes
				}
				if sum != want {
					t.Fatalf("L=%d op %d (%v): trace live %d, profile wants %d",
						L, p, op, sum, want)
				}
			}
			if len(live) != 0 {
				t.Fatalf("L=%d: trace leaks %d tensors", L, len(live))
			}
		}
	}
}

// TestAnalyzeModelBytesDifferential checks AnalyzeModel's byte peaks against
// a naive per-position liveness walk that re-derives, from the schedule
// positions alone, which gradients are live after every op.
func TestAnalyzeModelBytesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		L := 1 + rng.Intn(24)
		m := randModel(rng, L)
		for _, s := range schedules(rng, L) {
			a, err := AnalyzeModel(m, s)
			if err != nil {
				t.Fatal(err)
			}

			// posOf[op] is the schedule position of each op.
			posOf := map[Op]int{}
			for p, op := range s {
				posOf[op] = p
			}
			// g_i is produced at pos(δO_{i+1}) (g_L before the pass) and dies
			// once both δO_i and δW_i ran.
			producedAt := func(i int) int {
				if i == L {
					return -1
				}
				return posOf[Op{Kind: OutGrad, Layer: i + 1}]
			}
			diesAfter := func(i int) int {
				d := posOf[Op{Kind: OutGrad, Layer: i}]
				if w := posOf[Op{Kind: WeightGrad, Layer: i}]; w > d {
					d = w
				}
				return d
			}
			// Gradient liveness is sampled *during* each op (p ≤ diesAfter):
			// while δO_i runs, its input g_i and its output g_{i-1} coexist,
			// and the retention plan must hold both.
			var wantGradPeak int64
			for p := -1; p < len(s); p++ {
				var liveBytes int64
				for i := 1; i <= L; i++ {
					if producedAt(i) <= p && p <= diesAfter(i) {
						liveBytes += m.Layers[i-1].OutBytes
					}
				}
				if liveBytes > wantGradPeak {
					wantGradPeak = liveBytes
				}
			}
			if a.PeakLiveGradBytes != wantGradPeak {
				t.Fatalf("L=%d: PeakLiveGradBytes %d, naive walk %d",
					L, a.PeakLiveGradBytes, wantGradPeak)
			}

			// Overall peak: acts live until δW, grads as above, workspace at
			// its own δW position.
			var wantPeak int64
			for p, op := range s {
				var liveBytes int64
				for i := 1; i <= L; i++ {
					if p < posOf[Op{Kind: WeightGrad, Layer: i}] {
						liveBytes += m.Layers[i-1].ActBytes
					}
					if producedAt(i) <= p && p < diesAfter(i) {
						liveBytes += m.Layers[i-1].OutBytes
					}
				}
				if op.Kind == WeightGrad {
					liveBytes += m.Layers[op.Layer-1].WorkBytes
				}
				if liveBytes > wantPeak {
					wantPeak = liveBytes
				}
			}
			if a.PeakMemoryBytes != wantPeak {
				t.Fatalf("L=%d: PeakMemoryBytes %d, naive walk %d",
					L, a.PeakMemoryBytes, wantPeak)
			}
		}
	}
}

// TestAnalyzeModelZoo sanity-checks the byte fields over the real zoo: the
// byte peak under full deferral dominates k = 0, and counts/bytes stay
// consistent with Analyze.
func TestAnalyzeModelZoo(t *testing.T) {
	for _, e := range models.Zoo() {
		m := e.Build(models.V100Profile())
		L := len(m.Layers)
		a0, err := AnalyzeModel(m, ReverseFirstK(L, 0))
		if err != nil {
			t.Fatal(err)
		}
		aL, err := AnalyzeModel(m, ReverseFirstK(L, L))
		if err != nil {
			t.Fatal(err)
		}
		if aL.PeakLiveGradBytes < a0.PeakLiveGradBytes {
			t.Errorf("%s: full deferral retains %d grad bytes < k=0's %d",
				m.Name, aL.PeakLiveGradBytes, a0.PeakLiveGradBytes)
		}
		if a0.PeakMemoryBytes != PeakMemory(m, ReverseFirstK(L, 0)) {
			t.Errorf("%s: PeakMemoryBytes disagrees with PeakMemory", m.Name)
		}
		plain, err := Analyze(L, ReverseFirstK(L, L))
		if err != nil {
			t.Fatal(err)
		}
		if plain.PeakLiveGrads != aL.PeakLiveGrads {
			t.Errorf("%s: AnalyzeModel changed the tensor-count peak", m.Name)
		}
		if plain.PeakLiveGradBytes != 0 {
			t.Errorf("%s: Analyze without a model filled byte fields", m.Name)
		}
	}
}

// TestPeakMemoryIsProfileMax: the running max equals the materialised
// profile's, on both sides of the layer count where the walk's flags leave
// the stack, and below it the call does not allocate.
func TestPeakMemoryIsProfileMax(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, L := range []int{1, 2, 9, 64, 512, 513, 700} {
		m := randModel(rng, L)
		for _, s := range schedules(rng, L) {
			var want int64
			for _, v := range MemoryProfile(m, s) {
				want = max(want, v)
			}
			if got := PeakMemory(m, s); got != want {
				t.Fatalf("L=%d: PeakMemory %d, max of MemoryProfile %d", L, got, want)
			}
		}
		if L > 512 {
			continue
		}
		s := ReverseFirstK(L, L/2)
		if n := testing.AllocsPerRun(20, func() { PeakMemory(m, s) }); n != 0 {
			t.Fatalf("L=%d: PeakMemory allocates %v times per call, want 0", L, n)
		}
	}
}
