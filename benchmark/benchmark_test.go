package main

import (
	"bytes"
	"math"
	"testing"
)

// TestSmoke runs every workload for a fraction of a second in both passes,
// so `go test ./...` keeps the benchmark building and its contract honest:
// the workload and metric names are exactly those of BENCHMARK.json, every
// end-to-end value is finite and positive, and no operation fails.
func TestSmoke(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness says %q", i, w.Name, workloads[i].name)
		}
	}
	wantUnits := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		wantUnits[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		wantUnits[true][m.Name] = m.Unit
	}
	for traced, defs := range map[bool][]metricDef{false: endToEndMetrics, true: perLayerMetrics} {
		if len(defs) != len(wantUnits[traced]) {
			t.Errorf("traced=%v: BENCHMARK.json lists %d metrics, the harness declares %d", traced, len(wantUnits[traced]), len(defs))
		}
		for _, def := range defs {
			if unit, ok := wantUnits[traced][def.name]; !ok || unit != def.unit {
				t.Errorf("metric %s [%s]: BENCHMARK.json has unit %q (listed: %v)", def.name, def.unit, unit, ok)
			}
		}
	}

	outDir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			opts := options{workload: w.name, seed: 3, seconds: 0.2, trace: traced, outDir: outDir, clients: closedLoopClients(), rounds: 1}
			out, err := w.run(opts)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			res, err := result(out, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, out.problems)
			}
			if len(res.Metrics) != len(wantUnits[traced]) {
				t.Errorf("%s traced=%v: %d metrics emitted, want %d", w.name, traced, len(res.Metrics), len(wantUnits[traced]))
			}
			for name, m := range res.Metrics {
				if unit, ok := wantUnits[traced][name]; !ok || unit != m.Unit {
					t.Errorf("%s traced=%v: emitted metric %s [%s] is not in BENCHMARK.json", w.name, traced, name, m.Unit)
				}
				if !traced && !(m.Value > 0) || math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
					t.Errorf("%s: metric %s = %v, want finite and positive", w.name, name, m.Value)
				}
			}
		}
	}
}

// TestGeneratorIsAFunctionOfSeedAndIndex pins the seeded-input contract:
// equal (seed, index) pairs give equal bytes, other seeds give other inputs,
// and no two indices of a cold workload share a request.
func TestGeneratorIsAFunctionOfSeedAndIndex(t *testing.T) {
	mix, other := newPlanMix(1), newPlanMix(2)
	ranges := map[string]budgetRange{}
	for _, name := range mix.zoo {
		ranges[name] = budgetRange{tight: 1 << 30, loose: 1 << 32}
	}
	seen := map[string]int{}
	differs := false
	for i := 0; i < 2000; i++ {
		a, b := mix.timePlan(i), newPlanMix(1).timePlan(i)
		if !bytes.Equal(a.body, b.body) {
			t.Fatalf("request %d: two builds differ", i)
		}
		differs = differs || !bytes.Equal(a.body, other.timePlan(i).body)
		m := mix.memoryPlan(ranges, i)
		for _, body := range [][]byte{a.body, m.body} {
			if j, dup := seen[string(body)]; dup {
				t.Fatalf("requests %d and %d are identical", j, i)
			}
			seen[string(body)] = i
		}
		if r := ranges[m.req.Model]; m.req.MaxMemoryBytes < r.tight {
			t.Fatalf("request %d: budget %d below the tightest achievable %d", i, m.req.MaxMemoryBytes, r.tight)
		}
	}
	if !differs {
		t.Fatal("seeds 1 and 2 generate the same requests")
	}
}

// TestQuartilesMatchPython holds the spread rule to the values Python's
// statistics.quantiles(v, n=4) gives, since the acceptance rule is written
// in terms of it.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles of [1 2 4] = %v, %v; Python gives 1, 4", q1, q3)
	}
	if got := spread([]float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spread of 1..10 = %v, want 5.5/5.5", got)
	}
}
