package graph

import (
	"math"
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

// TestWalksMatchNaiveLiveness checks the walks against a naive liveness
// oracle that re-derives, from the schedule positions alone, which tensors
// are live at every op: Analyze's PeakLiveGrads against the gradients live
// while each op runs, PeakMemory against the bytes live after each op's
// frees plus its workspace.
func TestWalksMatchNaiveLiveness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		L := 1 + rng.Intn(24)
		m := randModel(rng, L)
		for _, s := range schedules(rng, L) {
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
				return max(posOf[Op{Kind: OutGrad, Layer: i}], posOf[Op{Kind: WeightGrad, Layer: i}])
			}
			// Gradient liveness is sampled *during* each op (p ≤ diesAfter):
			// while δO_i runs, its input g_i and its output g_{i-1} coexist,
			// and the retention plan must hold both.
			wantGrads := 0
			for p := -1; p < len(s); p++ {
				n := 0
				for i := 1; i <= L; i++ {
					if producedAt(i) <= p && p <= diesAfter(i) {
						n++
					}
				}
				wantGrads = max(wantGrads, n)
			}
			a, err := Analyze(L, s)
			if err != nil {
				t.Fatal(err)
			}
			if a.PeakLiveGrads != wantGrads {
				t.Fatalf("L=%d: PeakLiveGrads %d, naive walk %d", L, a.PeakLiveGrads, wantGrads)
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
				wantPeak = max(wantPeak, liveBytes)
			}
			if got := PeakMemory(m, s); got != wantPeak {
				t.Fatalf("L=%d: PeakMemory %d, naive walk %d", L, got, wantPeak)
			}
		}
	}
}

// TestByteWalksRejectInvalidSchedules: MemoryProfile, PeakMemory and the
// checkpointed walk panic with Validate's error on every kind of invalid
// schedule, as the trace does, rather than returning a profile of ops that
// cannot run.
func TestByteWalksRejectInvalidSchedules(t *testing.T) {
	const L = 6
	m := randModel(rand.New(rand.NewSource(41)), L)
	walks := map[string]func(BackwardSchedule){
		"MemoryProfile":            func(s BackwardSchedule) { MemoryProfile(m, s) },
		"PeakMemory":               func(s BackwardSchedule) { PeakMemory(m, s) },
		"Trace":                    func(s BackwardSchedule) { TraceAllocs(m, s) },
		"MemoryProfileRecompute/1": func(s BackwardSchedule) { MemoryProfileRecompute(m, s, 1) },
		"MemoryProfileRecompute/3": func(s BackwardSchedule) { MemoryProfileRecompute(m, s, 3) },
	}
	// The conventional schedule with its last op replaced by a second δW_L:
	// δW_1 never runs.
	twice := Conventional(L)
	twice[len(twice)-1] = Op{Kind: WeightGrad, Layer: L}
	cases := invalidSchedules(L)
	cases["dW-twice"] = twice
	for name, s := range cases {
		want := s.Validate(L)
		for walk, f := range walks {
			func() {
				defer func() {
					got, _ := recover().(error)
					if got == nil || got.Error() != want.Error() {
						t.Errorf("%s %s: panic %v, want Validate's %v", walk, name, got, want)
					}
				}()
				f(s)
			}()
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

// TestWalkerStepsAsTheWalksDo: stepping a walker by hand, Peek foretells
// each op's MemoryProfile charge and the live bytes Step leaves, and Step
// stops at the op Validate names, with its error.
func TestWalkerStepsAsTheWalksDo(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var w Walker
	for trial := 0; trial < 20; trial++ {
		L := 1 + rng.Intn(24)
		m := randModel(rng, L)
		for _, s := range schedules(rng, L) {
			prof := MemoryProfile(m, s)
			w.Reset(m)
			for p, op := range s {
				after, charge := w.Peek(op)
				if err := w.Step(op); err != nil {
					t.Fatalf("L=%d op %d (%v): %v", L, p, op, err)
				}
				if charge != prof[p] || w.Live() != after {
					t.Fatalf("L=%d op %d (%v): Peek %d/%d, profile %d, live %d", L, p, op, after, charge, prof[p], w.Live())
				}
			}
		}
		for name, s := range invalidSchedules(L + 1) {
			if len(s) != 2*(L+1) {
				continue // Step walks ops; the length rule is Validate's
			}
			want := s.Validate(L + 1)
			w.Reset(randModel(rng, L+1))
			var got error
			for _, op := range s {
				if got = w.Step(op); got != nil {
					break
				}
			}
			if got == nil || got.Error() != want.Error() {
				t.Errorf("L=%d %s: Step error %v, Validate %v", L+1, name, got, want)
			}
		}
	}
}

// TestValidateRejectsExtremeOps: layers and kinds far out of range are
// errors, not panics.
func TestValidateRejectsExtremeOps(t *testing.T) {
	for _, op := range []Op{{OutGrad, math.MaxInt}, {WeightGrad, math.MinInt}, {OpKind(math.MaxInt), 1}, {OpKind(math.MinInt), 1}} {
		s := Conventional(2)
		s[0] = op
		if err := s.Validate(2); err == nil {
			t.Errorf("%v validated", op)
		}
	}
}
