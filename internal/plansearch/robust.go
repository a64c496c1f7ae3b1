package plansearch

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"oooback/internal/calib"
	"oooback/internal/core"
)

// Perturbation is one calib.WhatIf cost perturbation the robust mode scores
// schedules under. Only the model-level families (fwd, dO, dW) and bandwidth
// apply to an IterCosts vector: op-kind factors scale the compute columns,
// bandwidth divides the synchronization service times (communication time
// ∝ 1/bandwidth). Aggregation lags are latency, not bandwidth, and stay
// fixed.
type Perturbation struct {
	// Name labels the perturbation in results.
	Name string
	// WhatIf is the cost perturbation, with calib's validation vocabulary.
	WhatIf calib.WhatIf
}

// Validate checks the perturbation against the families an IterCosts vector
// carries.
func (p Perturbation) Validate() error {
	if err := p.WhatIf.Validate(calib.ModelFamilies()...); err != nil {
		return fmt.Errorf("plansearch: perturbation %q: %w", p.Name, err)
	}
	return nil
}

// perturbations is the robust mode's uncertainty set, read-only: δW kernels
// faster or slower than calibrated, and the interconnect at half or double
// bandwidth — the axes the reverse-first-k trade-off is most sensitive to.
var perturbations = []Perturbation{
	{Name: "dw-fast", WhatIf: calib.WhatIf{ScaleOpKind: map[string]float64{"dW": 0.7}}},
	{Name: "dw-slow", WhatIf: calib.WhatIf{ScaleOpKind: map[string]float64{"dW": 1.4}}},
	{Name: "bw-half", WhatIf: calib.WhatIf{ScaleBandwidth: 0.5}},
	{Name: "bw-double", WhatIf: calib.WhatIf{ScaleBandwidth: 2}},
}

// perturbedCosts returns a copy of the cost vector under the perturbation.
// The perturbation must already be validated.
func perturbedCosts(c core.IterCosts, p Perturbation) core.IterCosts {
	out := core.IterCosts{
		F:       append([]time.Duration(nil), c.F...),
		DO:      append([]time.Duration(nil), c.DO...),
		DW:      append([]time.Duration(nil), c.DW...),
		SyncW:   append([]time.Duration(nil), c.SyncW...),
		SyncLag: c.SyncLag, // latency, unperturbed; never mutated here
	}
	scaleCol := func(col []time.Duration, s float64) {
		for i, d := range col {
			col[i] = scaleDurUp(d, s)
		}
	}
	for kind, s := range p.WhatIf.ScaleOpKind {
		switch kind {
		case "fwd":
			scaleCol(out.F, s)
		case "dO":
			scaleCol(out.DO, s)
		case "dW":
			scaleCol(out.DW, s)
		}
	}
	if b := p.WhatIf.ScaleBandwidth; b != 0 && b != 1 {
		scaleCol(out.SyncW, 1/b)
	}
	return out
}

// scaleDurUp mirrors calib's duration scaling: round to the nearest ns and
// keep positive durations positive (the simulator requires positive compute
// columns).
func scaleDurUp(d time.Duration, s float64) time.Duration {
	out := time.Duration(math.Round(float64(d) * s))
	if out < 1 && d > 0 {
		out = 1
	}
	return out
}

// searchRobust runs the guided search, re-scores the top-N pool of probed
// schedules under every perturbation, and returns the schedule with the
// smallest worst-case regret.
func (s *state) searchRobust() Result {
	guided := s.searchGuided()

	// Pool: the top-N probed candidates by nominal makespan.
	pool := s.topProbed(robustTopN)

	// Score the pool under every perturbation. Regret is measured against
	// the pool's own best under that perturbation — the quantity a planner
	// choosing within this pool can actually lose.
	worst := make([]float64, len(pool))
	out := make([]time.Duration, s.n)
	robustProbes := 0
	for _, p := range perturbations {
		costs := perturbedCosts(s.sp.Costs, p)
		s.probeCosts(costs, out, pool)
		robustProbes += len(pool)
		bestID, bestM := -1, time.Duration(0)
		for _, id := range pool {
			if bestID < 0 || better(out[id], id, bestM, bestID) {
				bestID, bestM = id, out[id]
			}
		}
		for i, id := range pool {
			r := 0.0
			if bestM > 0 {
				r = float64(out[id]-bestM) / float64(bestM)
			}
			if r > worst[i] {
				worst[i] = r
			}
		}
	}

	// Winner: smallest worst-case regret; ties fall back to the nominal
	// order (makespan, then id) so the robust pick degrades gracefully to
	// the guided pick when the perturbations do not separate the pool.
	winner := 0
	for i := 1; i < len(pool); i++ {
		if worst[i] != worst[winner] {
			if worst[i] < worst[winner] {
				winner = i
			}
			continue
		}
		if better(s.measured[pool[i]], pool[i], s.measured[pool[winner]], pool[winner]) {
			winner = i
		}
	}

	alts := make([]Alternative, len(pool))
	for i, id := range pool {
		alts[i] = Alternative{Candidate: s.candidate(id), WorstRegret: worst[i]}
	}
	order := make([]int, len(pool))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(
			cmp.Compare(worst[a], worst[b]),
			cmp.Compare(s.measured[pool[a]], s.measured[pool[b]]),
			cmp.Compare(pool[a], pool[b]))
	})
	sorted := make([]Alternative, len(alts))
	for i, j := range order {
		sorted[i] = alts[j]
	}

	return Result{
		Best:            s.candidate(pool[winner]),
		Probes:          s.probes,
		RobustProbes:    robustProbes,
		Candidates:      s.n,
		CutoffProven:    guided.CutoffProven,
		RankCorrelation: guided.RankCorrelation,
		WorstRegret:     worst[winner],
		Alternatives:    sorted,
	}
}

// topProbed returns up to n probed candidate ids ordered by the nominal
// better() order.
func (s *state) topProbed(n int) []int {
	ids := make([]int, 0, s.probes)
	for id := 0; id < s.n; id++ {
		if s.probed[id] {
			ids = append(ids, id)
		}
	}
	slices.SortFunc(ids, func(a, b int) int {
		return cmp.Or(cmp.Compare(s.measured[a], s.measured[b]), cmp.Compare(a, b))
	})
	if len(ids) > n {
		ids = ids[:n]
	}
	return ids
}
