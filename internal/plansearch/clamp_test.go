package plansearch

import (
	"math/rand"
	"slices"
	"testing"

	"oooback/internal/core"
	"oooback/internal/datapar"
	"oooback/internal/graph"
	"oooback/internal/models"
)

// TestClampMatchesMaxK: across the zoo, under budgets from looser than the
// loosest footprint to tighter than the tightest, the probe's memoised clamp
// picks for every k the depth the unmemoised definition picks — scan down
// from k to the first depth whose materialised profile fits — and the
// schedule core.ReverseFirstK(m, k, budget) returns, op for op. One search
// state serves all k of a budget, visited in shuffled order, so the memo is
// consulted both above and below the depths it has already evaluated.
func TestClampMatchesMaxK(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, e := range models.Zoo() {
		m := e.Build(models.V100Profile())
		L := len(m.Layers)
		peaks := make([]int64, L+1)
		for k := range peaks {
			peaks[k] = slices.Max(graph.MemoryProfile(m, graph.ReverseFirstK(L, k)))
		}
		sorted := slices.Clone(peaks)
		slices.Sort(sorted)
		budgets := []int64{
			sorted[L] + 1, sorted[L], sorted[3*L/4], sorted[L/2], sorted[L/4], sorted[0], sorted[0] - 1,
		}
		sp := zooSpace(m, datapar.OOOBytePS)
		for _, budget := range budgets {
			sp.MaxMemoryBytes = budget
			st := newState(sp, Config{}, false)
			for _, k := range rng.Perm(L) {
				want := 0
				for j := k; j > 0; j-- {
					if peaks[j] <= budget {
						want = j
						break
					}
				}
				got := st.clamp(k)
				if got != want {
					t.Fatalf("%s budget %d: clamp(%d) = %d, first fit from k is %d", e.Name, budget, k, got, want)
				}
				if k%8 != 0 {
					continue // the op-for-op check rescans; sample it
				}
				if order := core.ReverseFirstK(m, k, budget); !slices.Equal(order, graph.ReverseFirstK(L, got)) {
					t.Fatalf("%s budget %d: core.ReverseFirstK(k=%d) is not reverse-first-%d", e.Name, budget, k, got)
				}
			}
			for j, f := range st.fit {
				if f != 0 && (f > 0) != (peaks[j] <= budget) {
					t.Fatalf("%s budget %d: memo says depth %d fits=%v, peak %d", e.Name, budget, j, f > 0, peaks[j])
				}
			}
		}
	}
}

// TestBindingBudgetSearchMatchesUnmemoised: a search under a binding budget
// returns what the same search returns when every probe clamps through
// core.ReverseFirstK on its own.
func TestBindingBudgetSearchMatchesUnmemoised(t *testing.T) {
	m := models.ResNet(models.V100Profile(), 50, 128, models.ImageNet)
	L := len(m.Layers)
	sp := zooSpace(m, datapar.OOOBytePS, datapar.OOOHorovod)
	sp.MaxMemoryBytes = graph.PeakMemory(m, graph.ReverseFirstK(L, L/3))
	var sc core.IterScratch
	for _, mode := range []Mode{Exact, Guided, Robust} {
		r := Search(sp, mode, Config{Workers: 3})
		disc := sp.Disciplines[r.Best.Discipline]
		order := core.ReverseFirstK(m, r.Best.K, sp.MaxMemoryBytes)
		if got := sc.SimulateIteration(sp.Costs, order, disc.Prio, disc.Preemptive).Makespan; got != r.Best.Makespan {
			t.Fatalf("%v: best k=%d reported %v, its clamped schedule simulates to %v", mode, r.Best.K, r.Best.Makespan, got)
		}
		if !slices.Equal(sp.Schedule(r.Best), order) {
			t.Fatalf("%v: Space.Schedule differs from core.ReverseFirstK", mode)
		}
	}
	exact := Search(sp, Exact, Config{})
	for d, disc := range sp.Disciplines {
		for k := 0; k < L; k++ {
			order := core.ReverseFirstK(m, k, sp.MaxMemoryBytes)
			got := sc.SimulateIteration(sp.Costs, order, disc.Prio, disc.Preemptive).Makespan
			if better(got, d*L+k, exact.Best.Makespan, exact.Best.Discipline*L+exact.Best.K) {
				t.Fatalf("candidate (d=%d, k=%d) at %v beats the exact search's best %+v", d, k, got, exact.Best)
			}
		}
	}
}

// TestClampAtPeakBound: across the zoo, at budgets just below, at and just
// above peakBound, the clamp picks for every k the depth the per-depth
// graph.PeakMemory scan picks, and a probed candidate reports that depth; at
// and above the bound the memo starts full, below it empty.
func TestClampAtPeakBound(t *testing.T) {
	for _, e := range models.Zoo() {
		m := e.Build(models.V100Profile())
		L := len(m.Layers)
		bound := peakBound(m)
		sp := zooSpace(m, datapar.OOOBytePS)
		for _, budget := range []int64{bound - 1, bound, bound + 1} {
			sp.MaxMemoryBytes = budget
			st := newState(sp, Config{}, false)
			if prefilled := !slices.Contains(st.fit, 0); prefilled != (budget >= bound) {
				t.Fatalf("%s budget %d (bound %d): memo prefilled = %v", e.Name, budget, bound, prefilled)
			}
			want := make([]int, L)
			for k := range want {
				for j := k; j > 0; j-- {
					if graph.PeakMemory(m, graph.ReverseFirstK(L, j)) <= budget {
						want[k] = j
						break
					}
				}
				if got := st.clamp(k); got != want[k] {
					t.Fatalf("%s budget %d (bound %d): clamp(%d) = %d, per-depth PeakMemory says %d", e.Name, budget, bound, k, got, want[k])
				}
			}
			st.measure(st.allIDs())
			for k := range want {
				if got := st.candidate(k).Depth; got != want[k] {
					t.Fatalf("%s budget %d (bound %d): candidate %d ran at depth %d, per-depth PeakMemory says %d", e.Name, budget, bound, k, got, want[k])
				}
			}
		}
	}
}
