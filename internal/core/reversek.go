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
	if k < 0 {
		k = 0
	}
	if k > L {
		k = L
	}
	if maxMem > 0 {
		k = min(k, maxK(m, k, maxMem))
	}
	return graph.ReverseFirstK(L, k)
}

// maxK finds the largest j ≤ k whose schedule peak fits in maxMem. The peak
// is nondecreasing in j (deferring more δW only retains more tensors), so a
// downward scan from k terminates at the first fit.
func maxK(m *models.Model, k int, maxMem int64) int {
	L := len(m.Layers)
	for j := k; j > 0; j-- {
		if graph.PeakMemory(m, graph.ReverseFirstK(L, j)) <= maxMem {
			return j
		}
	}
	return 0
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

// ReverseFirstKCheckpointed is ReverseFirstK for training that runs with
// activation checkpointing every `every` layers (§6): the memory clamp is
// evaluated against the re-computation profile rather than the store-all
// profile, so k can usually stay much larger under the same budget.
func ReverseFirstKCheckpointed(m *models.Model, k, every int, maxMem int64) graph.BackwardSchedule {
	L := len(m.Layers)
	if k < 0 {
		k = 0
	}
	if k > L {
		k = L
	}
	if maxMem > 0 {
		for ; k > 0; k-- {
			rc := graph.MemoryProfileRecompute(m, graph.ReverseFirstK(L, k), every)
			if rc.Peak() <= maxMem {
				break
			}
		}
	}
	return graph.ReverseFirstK(L, k)
}
