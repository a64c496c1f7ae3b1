package plansearch

import (
	"fmt"
	"testing"

	"oooback/internal/datapar"
	"oooback/internal/models"
)

// zooDiscipline is a datapar method's channel as a search discipline.
func zooDiscipline(method datapar.Method) Discipline {
	prio, preemptive := method.Channel()
	return Discipline{Name: method.String(), Prio: prio, Preemptive: preemptive}
}

// TestZooGuidedOptimality is the CI gate of this package: across the whole
// committed model zoo, the guided search must return the exhaustive-sweep
// optimum (equality, not just the 1% contract) while issuing at least 3×
// fewer exact simulator probes in aggregate.
func TestZooGuidedOptimality(t *testing.T) {
	profile := models.V100Profile()
	cl := datapar.PubA()
	const gpus = 16
	methods := []datapar.Method{datapar.OOOBytePS, datapar.OOOHorovod}

	totalExact, totalGuided := 0, 0
	for _, e := range models.Zoo() {
		m := e.Build(profile)
		for _, method := range methods {
			costs := datapar.Costs(m, cl, gpus, method)
			sp := Space{
				Model:       m,
				Costs:       costs,
				Disciplines: []Discipline{zooDiscipline(method)},
			}
			exact := Search(sp, Exact, Config{})
			guided := Search(sp, Guided, Config{})

			gap := 0.0
			if exact.Best.Makespan > 0 {
				gap = float64(guided.Best.Makespan-exact.Best.Makespan) / float64(exact.Best.Makespan)
			}
			t.Logf("%-16s %-12s L=%3d  exact k=%3d %v (%d probes)  guided k=%3d %v (%d probes, %.1f× saved, corr %.2f, proven %v)  gap %.3f%%",
				e.Name, method, m.NumLayers(),
				exact.Best.K, exact.Best.Makespan, exact.Probes,
				guided.Best.K, guided.Best.Makespan, guided.Probes,
				float64(exact.Probes)/float64(guided.Probes), guided.RankCorrelation, guided.CutoffProven, gap*100)

			if guided.Best != exact.Best {
				t.Errorf("%s/%s: guided best %+v != exhaustive best %+v", e.Name, method, guided.Best, exact.Best)
			}
			totalExact += exact.Probes
			totalGuided += guided.Probes
		}
	}
	ratio := float64(totalExact) / float64(totalGuided)
	t.Logf("zoo total: exhaustive %d probes, guided %d probes, %.2f× reduction", totalExact, totalGuided, ratio)
	if ratio < 3 {
		t.Fatalf("guided search saved only %.2f× probes across the zoo, gate requires ≥ 3×", ratio)
	}
}

// guidedGridMisses lists the cells of TestZooGuidedGrid where the guided
// search stops at a near-optimal depth instead of the exhaustive optimum, as
// cluster/model/GPUs/method. Each is inside the 1% contract and none claims a
// proven cutoff. The list may only shrink: a cell that starts to miss fails
// the test, and so does an entry whose cell now finds the optimum.
var guidedGridMisses = map[string]bool{
	"Priv-A/resnet101/8/Horovod":     true, // k=55 vs 46, 0.263 %
	"Priv-A/resnet101/8/BytePS":      true, // k=86 vs 89, 0.025 %
	"Priv-A/resnet101/8/OOO-BytePS":  true, // k=86 vs 89, 0.025 %
	"Priv-A/resnet101/8/OOO-Horovod": true, // k=55 vs 46, 0.263 %
	"Priv-A/resnet101/32/WFBP":       true, // k=70 vs 68, 0.151 %
	"Priv-A/resnet152/4/WFBP":        true, // k=106 vs 101, 0.375 %
	"Priv-A/resnet152/16/WFBP":       true, // k=127 vs 122, 0.852 %
	"Pub-A/resnet101/32/WFBP":        true, // k=85 vs 79, 0.770 %
	"Pub-A/resnet50/32/BytePS":       true, // k=35 vs 38, 0.139 %
	"Pub-A/resnet50/32/OOO-BytePS":   true, // k=35 vs 38, 0.139 %
}

// TestZooGuidedGrid runs the guided search against the exhaustive sweep on
// every zoo model under each cluster's own GPU profile, at 2, 4, 8, 16 and 32
// GPUs, for all six datapar methods (1 170 cells). TestZooGuidedOptimality
// gates equality on one cell of that grid per model and method (Pub-A, 16
// GPUs); here every cell must be within 1% of the optimum, a miss must never
// claim a proven cutoff, and the misses must be exactly guidedGridMisses.
// The grid goes past Priv-A's 8 and Priv-B's 20 GPUs, which the plan service
// rejects; datapar.Costs extrapolates to them, and the search is exercised all
// the same. Those cells are Priv-A at 16 and 32 GPUs and Priv-B at 32, 234 of
// the 1 170; two of the pinned misses are among them,
// Priv-A/resnet152/16/WFBP and Priv-A/resnet101/32/WFBP.
func TestZooGuidedGrid(t *testing.T) {
	methods := []datapar.Method{datapar.WFBP, datapar.Horovod, datapar.P3,
		datapar.BytePS, datapar.OOOBytePS, datapar.OOOHorovod}
	cells, worst := 0, 0.0
	seen := map[string]bool{}
	for _, cl := range []datapar.Cluster{datapar.PrivA(), datapar.PrivB(), datapar.PubA()} {
		for _, e := range models.Zoo() {
			m := e.Build(cl.Profile)
			for _, gpus := range []int{2, 4, 8, 16, 32} {
				for _, method := range methods {
					cells++
					sp := Space{
						Model:       m,
						Costs:       datapar.Costs(m, cl, gpus, method),
						Disciplines: []Discipline{zooDiscipline(method)},
					}
					exact := Search(sp, Exact, Config{})
					guided := Search(sp, Guided, Config{})
					if guided.Best == exact.Best {
						continue
					}
					cell := fmt.Sprintf("%s/%s/%d/%s", cl.Name, e.Name, gpus, method)
					seen[cell] = true
					gap := float64(guided.Best.Makespan-exact.Best.Makespan) / float64(exact.Best.Makespan)
					worst = max(worst, gap)
					t.Logf("%s: guided k=%d, exhaustive k=%d, gap %.3f%%", cell, guided.Best.K, exact.Best.K, gap*100)
					if gap > 0.01 {
						t.Errorf("%s: guided makespan %v is %.3f%% above the optimum %v, outside the 1%% contract",
							cell, guided.Best.Makespan, gap*100, exact.Best.Makespan)
					}
					if guided.CutoffProven {
						t.Errorf("%s: guided claims a proven cutoff at k=%d, but the optimum is k=%d", cell, guided.Best.K, exact.Best.K)
					}
					if !guidedGridMisses[cell] {
						t.Errorf("%s: new miss (guided k=%d, exhaustive k=%d); the pinned list may only shrink", cell, guided.Best.K, exact.Best.K)
					}
				}
			}
		}
	}
	for cell := range guidedGridMisses {
		if !seen[cell] {
			t.Errorf("%s: pinned as a miss but guided now finds the optimum; delete its entry", cell)
		}
	}
	t.Logf("%d cells, %d misses, worst gap %.3f%%", cells, len(seen), worst*100)
}
