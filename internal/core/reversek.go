package core

import (
	"oooback/internal/graph"
	"oooback/internal/models"
)

// ReverseFirstK implements Algorithm 2 (§5.1). It returns the backward
// schedule that runs layers L..k+1 conventionally (with δW_i hoisted just
// before δO_i, exactly as the pseudocode's lines 3–5 emit), defers the weight
// gradients of the first k layers, and finally runs δW_1 … δW_k in ascending
// layer order so that δW_1's synchronization — the most critical one, needed
// by the very first forward computation of the next iteration — starts as
// early as possible.
//
// k is clamped to max_k, the largest deferral whose peak memory stays under
// maxMem bytes (Algorithm 2 lines 1–2); pass maxMem ≤ 0 for no constraint.
func ReverseFirstK(m *models.Model, k int, maxMem int64) graph.BackwardSchedule {
	L := len(m.Layers)
	buf := make(graph.BackwardSchedule, 0, 2*L)
	k = ClampK(L, k, maxMem, func(j int) bool {
		buf = graph.AppendReverseFirstK(buf[:0], L, j)
		return graph.PeakMemory(m, buf) <= maxMem
	})
	return graph.AppendReverseFirstK(buf[:0], L, k)
}

// ClampK is Algorithm 2's lines 1–2, the one clamp behind ReverseFirstK and
// plansearch's probes: k is brought into [0, L] and, when maxMem > 0,
// lowered to max_k — the first depth j ≤ k, scanning down from k, whose
// schedule fits(j) reports within the bound (depth 0 is taken to fit). The scan is a first fit rather than a bisection
// because peak memory is nondecreasing in j on every zoo model
// (TestZooPeakMonotoneInK) but not by theorem: the transient δW workspace
// (WorkBytes) is charged where its op runs, and deferral moves it.
func ClampK(L, k int, maxMem int64, fits func(j int) bool) int {
	k = max(0, min(k, L))
	if maxMem > 0 {
		for ; k > 0 && !fits(k); k-- {
		}
	}
	return k
}

// SearchK finds the k that maximizes a throughput measurement, using the
// paper's coarse-to-fine heuristic (§5.1): sweep k in steps of Δk = L/10,
// then repeatedly halve Δk and re-probe around the best k found, assuming
// throughput is roughly concave in k. measure is memoized, so repeated
// probes of the same k are free. Probes run strictly in order on the calling
// goroutine; measure need not be safe for concurrent use. Ties resolve to the
// k probed first: grid order in the coarse phase, then best−Δk before best+Δk.
func SearchK(L int, measure func(k int) float64) int {
	if L <= 0 {
		return 0
	}
	memo := make(map[int]float64)
	probe := func(k int) float64 {
		if v, ok := memo[k]; ok {
			return v
		}
		v := measure(k)
		memo[k] = v
		return v
	}

	dk := L / 10
	if dk < 1 {
		dk = 1
	}
	// Coarse phase: the grid {0, Δk, 2Δk, ...} ∩ [0, L).
	best, bestV := 0, probe(0)
	for k := dk; k < L; k += dk {
		if v := probe(k); v > bestV {
			best, bestV = k, v
		}
	}
	// Refinement phase: halving around the incumbent.
	for dk > 1 {
		dk /= 2
		for _, k := range []int{best - dk, best + dk} {
			if k < 0 || k >= L {
				continue
			}
			if v := probe(k); v > bestV {
				best, bestV = k, v
			}
		}
	}
	return best
}
