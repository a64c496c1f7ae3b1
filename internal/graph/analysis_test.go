package graph

import (
	"math/rand"
	"testing"
)

func TestAnalyzeRejectsIllegal(t *testing.T) {
	if _, err := Analyze(3, BackwardSchedule{{Kind: WeightGrad, Layer: 1}}); err == nil {
		t.Fatal("short schedule accepted")
	}
	bad := BackwardSchedule{
		{OutGrad, 3}, {WeightGrad, 3}, {WeightGrad, 1}, // dW1 before dO2
		{OutGrad, 2}, {WeightGrad, 2}, {OutGrad, 1},
	}
	if _, err := Analyze(3, bad); err == nil {
		t.Fatal("dependency-violating schedule accepted")
	}
}

func TestAnalyzeConventional(t *testing.T) {
	const L = 4
	a, err := Analyze(L, Conventional(L))
	if err != nil {
		t.Fatal(err)
	}
	if a.PeakLiveGrads != 2 {
		t.Fatalf("conventional peak = %d, want 2", a.PeakLiveGrads)
	}
	wantLayers := []int{4, 3, 2, 1}
	for j, l := range wantLayers {
		if a.DWLayers[j] != l {
			t.Fatalf("DWLayers = %v, want %v", a.DWLayers, wantLayers)
		}
	}
}

func TestAnalyzeReverseFirstK(t *testing.T) {
	const L = 6
	for k := 0; k <= L; k++ {
		s := ReverseFirstK(L, k)
		a, err := Analyze(L, s)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		// Deferred δW: the first k layers issue last, in ascending order.
		for j, l := range a.DWLayers[L-k:] {
			if l != j+1 {
				t.Fatalf("k=%d: δW order %v does not end in dW1..dW%d", k, a.DWLayers, k)
			}
		}
		// Retention plan: once the chain completes, the k deferred gradients
		// are all still live, so the peak is k, floored at the conventional 2
		// (current gradient + freshly produced one).
		want := k
		if want < 2 {
			want = 2
		}
		if a.PeakLiveGrads != want {
			t.Fatalf("k=%d: peak = %d, want %d", k, a.PeakLiveGrads, want)
		}
	}
}

func TestReverseFirstKClamps(t *testing.T) {
	if err := ReverseFirstK(5, -3).Validate(5); err != nil {
		t.Fatal(err)
	}
	if err := ReverseFirstK(5, 99).Validate(5); err != nil {
		t.Fatal(err)
	}
}

// Property over random legal schedules: every layer's δW appears exactly
// once, and the analysis validates.
func TestAnalyzeRandomSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		L := 1 + rng.Intn(8)
		s := randomLegal(L, rng)
		a, err := Analyze(L, s)
		if err != nil {
			t.Fatalf("L=%d trial %d: %v", L, trial, err)
		}
		seen := make(map[int]bool)
		for _, l := range a.DWLayers {
			seen[l] = true
		}
		if len(seen) != L {
			t.Fatalf("δW layers %v incomplete for L=%d", a.DWLayers, L)
		}
	}
}

// randomLegal emits a uniformly random legal backward schedule.
func randomLegal(L int, rng *rand.Rand) BackwardSchedule {
	doneDO := make([]bool, L+2)
	doneDO[L+1] = true
	var pending []Op
	for i := 1; i <= L; i++ {
		pending = append(pending, Op{OutGrad, i}, Op{WeightGrad, i})
	}
	var s BackwardSchedule
	for len(pending) > 0 {
		var ready []int
		for j, op := range pending {
			if doneDO[op.Layer+1] {
				ready = append(ready, j)
			}
		}
		j := ready[rng.Intn(len(ready))]
		op := pending[j]
		pending = append(pending[:j], pending[j+1:]...)
		if op.Kind == OutGrad {
			doneDO[op.Layer] = true
		}
		s = append(s, op)
	}
	return s
}

func TestDWRank(t *testing.T) {
	// Conventional: δW runs L, L-1, ..., 1 — rank of layer l is L-l.
	const L = 5
	a, err := Analyze(L, Conventional(L))
	if err != nil {
		t.Fatal(err)
	}
	rank := a.DWRank()
	for l := 1; l <= L; l++ {
		if rank[l] != L-l {
			t.Fatalf("conventional rank[%d] = %d, want %d", l, rank[l], L-l)
		}
	}
	// Ranks invert DWLayers for any schedule.
	a, err = Analyze(L, ReverseFirstK(L, 3))
	if err != nil {
		t.Fatal(err)
	}
	rank = a.DWRank()
	for j, l := range a.DWLayers {
		if rank[l] != j {
			t.Fatalf("rank[%d] = %d, want completion position %d", l, rank[l], j)
		}
	}
}
