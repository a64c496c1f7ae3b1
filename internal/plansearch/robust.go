package plansearch

import (
	"cmp"
	"slices"
	"time"

	"oooback/internal/calib"
)

// perturbations is the robust mode's uncertainty set, read-only: δW kernels
// faster or slower than calibrated (dw-fast, dw-slow), and the interconnect
// at half or double bandwidth (bw-half, bw-double) — the axes the
// reverse-first-k trade-off is most sensitive to. Only the model-level
// families (calib.ModelFamilies) and bandwidth apply to an IterCosts vector.
var perturbations = []calib.WhatIf{
	{ScaleOpKind: map[string]float64{"dW": 0.7}},
	{ScaleOpKind: map[string]float64{"dW": 1.4}},
	{ScaleBandwidth: 0.5},
	{ScaleBandwidth: 2},
}

// searchRobust runs the guided search, re-scores the top-N pool of probed
// schedules under every perturbation, and returns the schedule with the
// smallest worst-case regret.
func (st *state) searchRobust() Result {
	r := st.searchGuided()
	pool := st.topProbed(robustTopN)

	// Score the pool under every perturbation. Regret is measured against
	// the pool's own best under that perturbation — the quantity a planner
	// choosing within this pool can actually lose.
	worst := make([]float64, len(pool))
	out := make([]time.Duration, st.n)
	for _, w := range perturbations {
		st.probe(w.ApplyCosts(st.sp.Costs), out, pool)
		r.RobustProbes += len(pool)
		best := pool[0]
		for _, id := range pool[1:] {
			if better(out[id], id, out[best], best) {
				best = id
			}
		}
		for i, id := range pool {
			reg := 0.0
			if out[best] > 0 {
				reg = float64(out[id]-out[best]) / float64(out[best])
			}
			worst[i] = max(worst[i], reg)
		}
	}

	// Winner: smallest worst-case regret; ties fall back to the nominal
	// order (makespan, then id) — the pool's order — so the robust pick
	// degrades gracefully to the guided pick when the perturbations do not
	// separate the pool. Alternatives list the pool in that order.
	order := make([]int, len(pool))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(worst[a], worst[b]) })
	r.Alternatives = make([]Alternative, len(pool))
	for i, j := range order {
		r.Alternatives[i] = Alternative{Candidate: st.candidate(pool[j]), WorstRegret: worst[j]}
	}
	r.Best, r.WorstRegret = r.Alternatives[0].Candidate, r.Alternatives[0].WorstRegret
	return r
}

// topProbed returns up to n probed candidate ids in the nominal better()
// order.
func (st *state) topProbed(n int) []int {
	ids := make([]int, 0, st.probes)
	for id, m := range st.measured {
		if m >= 0 {
			ids = append(ids, id)
		}
	}
	slices.SortFunc(ids, func(a, b int) int {
		return cmp.Or(cmp.Compare(st.measured[a], st.measured[b]), cmp.Compare(a, b))
	})
	return ids[:min(n, len(ids))]
}
