// Package microbench is the one registry of the repo's micro-benchmarks. Every
// row — its BENCH_BASELINE.json name, its body and, where one is enforced, its
// warm allocation bound — is defined here exactly once; `go test -bench=Micro`,
// `oooexp bench` and the TestMicroAllocs gate are loops over Rows.
package microbench

import "testing"

// Row is one micro-benchmark. Exactly one of Step and Bench is set.
type Row struct {
	// Name is the row's name in BENCH_BASELINE.json and under BenchmarkMicro/.
	Name string
	// Step sets the row up on tb (failing it on error, registering its
	// clean-up) and returns the operation one iteration executes, so the
	// benchmark loop and the allocation gate share one set-up. A non-nil
	// report attaches the custom metrics op accumulated, after the timed loop.
	Step func(tb testing.TB) (op func(), report func(b *testing.B))
	// Bench is the whole body of a row whose b.N is not a number of closure
	// calls (the load generators issue b.N requests from concurrent clients).
	Bench func(b *testing.B)
	// Gated rows must stay within MaxAllocs allocations per warm operation.
	Gated     bool
	MaxAllocs int
}

// Run is the row's benchmark body.
func (r Row) Run(b *testing.B) {
	if r.Bench != nil {
		r.Bench(b)
		return
	}
	op, report := r.Step(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	if report != nil {
		report(b)
	}
}
