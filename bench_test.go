// Package oooback's root benchmark harness: one benchmark per registered
// experiment (regenerating a paper table / figure end to end on the
// simulators) and one per row of the micro-benchmark registry, plus the
// allocation gates on the registry's warm hot paths.
//
// Run with: go test -bench=. -benchmem
package oooback

import (
	"encoding/json"
	"os"
	"testing"

	"oooback/internal/experiments"
	"oooback/internal/microbench"
)

// BenchmarkExperiment regenerates each table/figure of the paper's evaluation
// and each ablation: BenchmarkExperiment/<id> for every id of `oooexp list`.
func BenchmarkExperiment(b *testing.B) {
	for _, id := range experiments.IDs() {
		b.Run(id, func(b *testing.B) {
			e, _ := experiments.Get(id)
			var out string
			for i := 0; i < b.N; i++ {
				out = e.Run()
			}
			if len(out) == 0 {
				b.Fatal("empty report")
			}
		})
	}
}

// BenchmarkMicro runs the registry: BenchmarkMicro/<Row> is the body behind
// the BENCH_BASELINE.json row of that name.
func BenchmarkMicro(b *testing.B) {
	for _, r := range microbench.Rows() {
		b.Run(r.Name, r.Run)
	}
}

// TestMicroAllocs pins the perf contract of the pooled hot paths: after
// warm-up, a gated row's operation stays within its allocation bound (0 for
// most: the steady state never touches the allocator).
func TestMicroAllocs(t *testing.T) {
	for _, r := range microbench.Rows() {
		if !r.Gated {
			continue
		}
		t.Run(r.Name, func(t *testing.T) {
			op, _ := r.Step(t)
			op() // past warm-up: pools, retained buffers and profiler slots sized
			op()
			if n := testing.AllocsPerRun(20, op); n > float64(r.MaxAllocs) {
				t.Fatalf("warm %s allocates %v times per run, want at most %d", r.Name, n, r.MaxAllocs)
			}
		})
	}
}

// TestBaselineRowsRegistered ties the committed snapshot to the registry: row
// names are unique, and every row of BENCH_BASELINE.json is still a row.
func TestBaselineRowsRegistered(t *testing.T) {
	registered := make(map[string]bool)
	for _, r := range microbench.Rows() {
		if registered[r.Name] {
			t.Errorf("row %s registered twice", r.Name)
		}
		registered[r.Name] = true
	}
	buf, err := os.ReadFile("BENCH_BASELINE.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Benchmarks []struct{ Name string }
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) == 0 {
		t.Fatal("BENCH_BASELINE.json holds no rows")
	}
	for _, bm := range doc.Benchmarks {
		if !registered[bm.Name] {
			t.Errorf("BENCH_BASELINE.json row %s is not in the registry", bm.Name)
		}
	}
}
