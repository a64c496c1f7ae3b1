package plansearch

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"oooback/internal/calib"
	"oooback/internal/core"
	"oooback/internal/models"
)

// fifoDisc and prioDisc are the two channel behaviours the datapar methods
// map to.
func fifoDisc() Discipline {
	return Discipline{Name: "fifo", Prio: func(int) int { return 0 }, Preemptive: false}
}

func prioDisc() Discipline {
	return Discipline{Name: "layer-prio", Prio: func(layer int) int { return layer }, Preemptive: true}
}

// synthModel builds an L-layer model with the given per-layer times; only
// the fields the search touches (Layers, times, sizes) are populated.
func synthModel(L int, f, do, dw []time.Duration) *models.Model {
	m := &models.Model{Name: "synth", Batch: 32, Layers: make([]models.Layer, L)}
	for i := 0; i < L; i++ {
		m.Layers[i] = models.Layer{
			Name: "l", Fwd: f[i], DO: do[i], DW: dw[i],
			ParamBytes: 4 << 10, ActBytes: 16 << 10, OutBytes: 16 << 10,
		}
	}
	return m
}

// synthSpace builds a randomized space: smooth-ish per-layer costs with
// noise, sync mass scaled by syncScale (0 = compute-bound, 4 = comm-bound).
func synthSpace(rng *rand.Rand, L int, discs []Discipline, syncScale float64) Space {
	f := make([]time.Duration, L)
	do := make([]time.Duration, L)
	dw := make([]time.Duration, L)
	sw := make([]time.Duration, L)
	lag := make([]time.Duration, L)
	for i := 0; i < L; i++ {
		f[i] = time.Duration(1+rng.Intn(2000)) * time.Microsecond
		do[i] = time.Duration(1+rng.Intn(2000)) * time.Microsecond
		dw[i] = time.Duration(1+rng.Intn(2000)) * time.Microsecond
		sw[i] = time.Duration(float64(rng.Intn(2000)) * syncScale * float64(time.Microsecond))
		lag[i] = time.Duration(rng.Intn(200)) * time.Microsecond
	}
	costs := core.IterCosts{F: f, DO: do, DW: dw, SyncW: sw}
	if rng.Intn(2) == 0 {
		costs.SyncLag = lag
	}
	return Space{
		Model:       synthModel(L, f, do, dw),
		Costs:       costs,
		Disciplines: discs,
	}
}

// TestBoundsAdmissible is the load-bearing property: the closed-form lower
// bound must never exceed the exact simulated makespan, for any k, any
// discipline, any cost mixture — otherwise the guided cutoff could discard
// the optimum.
func TestBoundsAdmissible(t *testing.T) {
	discs := []Discipline{fifoDisc(), prioDisc()}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		L := 2 + rng.Intn(60)
		syncScale := []float64{0, 0.25, 1, 4}[rng.Intn(4)]
		sp := synthSpace(rng, L, discs, syncScale)
		kb := computeBounds(sp.Costs)
		var sc core.IterScratch
		for _, d := range sp.Disciplines {
			for k := 0; k < L; k++ {
				order := core.ReverseFirstK(sp.Model, k, 0)
				r := sc.SimulateIteration(sp.Costs, order, d.Prio, d.Preemptive)
				if kb.lb[k] > r.Makespan {
					t.Fatalf("seed %d L=%d sync=%v disc=%s k=%d: bound %v > exact makespan %v (inadmissible)",
						seed, L, syncScale, d.Name, k, kb.lb[k], r.Makespan)
				}
			}
		}
	}
}

// TestExactMatchesBruteForce pins the exhaustive mode and its tie-break to a
// hand-rolled argmin in id order.
func TestExactMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sp := synthSpace(rng, 23, []Discipline{fifoDisc(), prioDisc()}, 1)
	got := Search(sp, Exact, Config{})

	var sc core.IterScratch
	bestM := time.Duration(-1)
	bestD, bestK := -1, -1
	for d, disc := range sp.Disciplines {
		for k := 0; k < 23; k++ {
			order := core.ReverseFirstK(sp.Model, k, 0)
			r := sc.SimulateIteration(sp.Costs, order, disc.Prio, disc.Preemptive)
			if bestM < 0 || r.Makespan < bestM {
				bestM, bestD, bestK = r.Makespan, d, k
			}
		}
	}
	if got.Best.Makespan != bestM || got.Best.Discipline != bestD || got.Best.K != bestK {
		t.Fatalf("exact best = %+v, brute force (d=%d k=%d %v)", got.Best, bestD, bestK, bestM)
	}
	if got.Probes != got.Candidates || got.Candidates != 46 {
		t.Fatalf("exact probes=%d candidates=%d, want 46/46", got.Probes, got.Candidates)
	}
	if !got.CutoffProven || got.RankCorrelation != 1 {
		t.Fatalf("exact result flags: %+v", got)
	}
}

// TestTieBreakPlateau: when every candidate costs the same, the winner must
// be the first in scan order — discipline 0, k 0.
func TestTieBreakPlateau(t *testing.T) {
	L := 40
	f := make([]time.Duration, L)
	do := make([]time.Duration, L)
	dw := make([]time.Duration, L)
	sw := make([]time.Duration, L)
	for i := range f {
		f[i], do[i], dw[i] = time.Millisecond, time.Millisecond, time.Millisecond
	}
	sp := Space{
		Model:       synthModel(L, f, do, dw),
		Costs:       core.IterCosts{F: f, DO: do, DW: dw, SyncW: sw},
		Disciplines: []Discipline{fifoDisc(), prioDisc()},
	}
	for _, mode := range []Mode{Exact, Guided, Robust} {
		r := Search(sp, mode, Config{})
		if r.Best.Discipline != 0 || r.Best.K != 0 {
			t.Fatalf("%v: plateau tie broke to (d=%d k=%d), want (0, 0)", mode, r.Best.Discipline, r.Best.K)
		}
	}
}

// TestGuidedNearOptimal: on randomized spaces the guided result must stay
// within 1% of the exhaustive optimum, and a proven cutoff must mean exact
// equality (that is what the proof claims).
func TestGuidedNearOptimal(t *testing.T) {
	discs := []Discipline{fifoDisc(), prioDisc()}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		L := 21 + rng.Intn(120)
		syncScale := []float64{0.25, 1, 4}[rng.Intn(3)]
		sp := synthSpace(rng, L, discs, syncScale)

		exact := Search(sp, Exact, Config{})
		guided := Search(sp, Guided, Config{})

		if guided.Best.Makespan < exact.Best.Makespan {
			t.Fatalf("seed %d: guided %v beat exhaustive %v — probe results disagree", seed, guided.Best, exact.Best)
		}
		gap := float64(guided.Best.Makespan-exact.Best.Makespan) / float64(exact.Best.Makespan)
		if gap > 0.01 {
			t.Errorf("seed %d L=%d sync=%v: guided gap %.3f%% (guided %+v, exact %+v, probes %d/%d)",
				seed, L, syncScale, gap*100, guided.Best, exact.Best, guided.Probes, guided.Candidates)
		}
		if guided.CutoffProven && guided.Best != exact.Best {
			t.Errorf("seed %d: cutoff claimed proven but guided %+v != exact %+v", seed, guided.Best, exact.Best)
		}
		if guided.Probes > guided.Candidates {
			t.Errorf("seed %d: guided issued %d probes for %d candidates", seed, guided.Probes, guided.Candidates)
		}
	}
}

// TestGuidedSmallSpaceExhaustive: at or below exhaustiveBelow the guided
// mode must be the exact sweep.
func TestGuidedSmallSpaceExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sp := synthSpace(rng, 15, []Discipline{fifoDisc()}, 1)
	g := Search(sp, Guided, Config{})
	e := Search(sp, Exact, Config{})
	if g.Best != e.Best || g.Probes != e.Probes || !g.CutoffProven {
		t.Fatalf("small space: guided %+v, exact %+v", g, e)
	}
}

// TestDeterminismAcrossWorkers: results must be bit-identical at any worker
// count, for every mode.
func TestDeterminismAcrossWorkers(t *testing.T) {
	discs := []Discipline{fifoDisc(), prioDisc()}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		sp := synthSpace(rng, 25+rng.Intn(80), discs, 1)
		for _, mode := range []Mode{Exact, Guided, Robust} {
			base := Search(sp, mode, Config{Workers: 1})
			for _, w := range []int{2, 3, 8} {
				got := Search(sp, mode, Config{Workers: w})
				if !reflect.DeepEqual(base, got) {
					t.Fatalf("seed %d mode %v: workers=%d diverged:\n  w1: %+v\n  w%d: %+v", seed, mode, w, base, w, got)
				}
			}
		}
	}
}

// TestRobustInvariants checks the robust mode's structural contract.
func TestRobustInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sp := synthSpace(rng, 60, []Discipline{fifoDisc(), prioDisc()}, 2)
	cfg := Config{}
	r := Search(sp, Robust, cfg)
	g := Search(sp, Guided, cfg)

	if len(r.Alternatives) == 0 || len(r.Alternatives) > robustTopN {
		t.Fatalf("robust pool size %d, want 1..%d", len(r.Alternatives), robustTopN)
	}
	if r.Best != r.Alternatives[0].Candidate || r.WorstRegret != r.Alternatives[0].WorstRegret {
		t.Fatalf("Best %+v (regret %v) != first alternative %+v", r.Best, r.WorstRegret, r.Alternatives[0])
	}
	for i, a := range r.Alternatives {
		if a.WorstRegret < 0 {
			t.Fatalf("alternative %d has negative regret %v", i, a.WorstRegret)
		}
		if i > 0 && a.WorstRegret < r.Alternatives[i-1].WorstRegret {
			t.Fatalf("alternatives not sorted by regret: %v after %v", a.WorstRegret, r.Alternatives[i-1].WorstRegret)
		}
	}
	wantRobust := len(r.Alternatives) * len(perturbations)
	if r.RobustProbes != wantRobust {
		t.Fatalf("RobustProbes = %d, want pool×perturbations = %d", r.RobustProbes, wantRobust)
	}
	if r.Probes != g.Probes {
		t.Fatalf("robust nominal probes %d != guided %d (the pool is drawn from the guided probes)", r.Probes, g.Probes)
	}
	again := Search(sp, Robust, cfg)
	if !reflect.DeepEqual(r, again) {
		t.Fatalf("robust search is not reproducible:\n  a: %+v\n  b: %+v", r, again)
	}
}

// TestSearchPanics pins the structural-misuse contract.
func TestSearchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sp := synthSpace(rng, 10, []Discipline{fifoDisc()}, 1)

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("no disciplines", func() {
		bad := sp
		bad.Disciplines = nil
		Search(bad, Exact, Config{})
	})
	mustPanic("nil model", func() {
		bad := sp
		bad.Model = nil
		Search(bad, Exact, Config{})
	})
	mustPanic("layer mismatch", func() {
		bad := sp
		bad.Model = synthModel(3, sp.Costs.F[:3], sp.Costs.DO[:3], sp.Costs.DW[:3])
		Search(bad, Exact, Config{})
	})
}

// TestPerturbationValidate: the robust mode's own set uses only the families
// an IterCosts vector carries.
func TestPerturbationValidate(t *testing.T) {
	for i, w := range perturbations {
		if err := w.Validate(calib.ModelFamilies()...); err != nil {
			t.Errorf("perturbation %d: %v", i, err)
		}
	}
}

// TestScheduleMatchesCandidate: the materialized schedule is the probed one.
func TestScheduleMatchesCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sp := synthSpace(rng, 30, []Discipline{fifoDisc()}, 1)
	r := Search(sp, Guided, Config{})
	order := sp.Schedule(r.Best)
	var sc core.IterScratch
	sim := sc.SimulateIteration(sp.Costs, order, sp.Disciplines[0].Prio, sp.Disciplines[0].Preemptive)
	if sim.Makespan != r.Best.Makespan {
		t.Fatalf("materialized schedule simulates to %v, search reported %v", sim.Makespan, r.Best.Makespan)
	}
}

// TestRankCorrelationRange: the reported correlation is a correlation.
func TestRankCorrelationRange(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		sp := synthSpace(rng, 30+rng.Intn(100), []Discipline{fifoDisc(), prioDisc()}, 1)
		r := Search(sp, Guided, Config{})
		if r.RankCorrelation < -1.0000001 || r.RankCorrelation > 1.0000001 {
			t.Fatalf("seed %d: rank correlation %v outside [-1, 1]", seed, r.RankCorrelation)
		}
	}
}
