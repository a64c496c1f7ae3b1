package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"oooback/internal/microbench"
)

// benchResult is one machine-readable micro-benchmark measurement.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// OpsPerSec carries a benchmark's custom "ops/s" metric when it reports
	// one (the plan-service closed-loop throughput); 0 otherwise.
	OpsPerSec float64 `json:"ops_per_sec,omitempty"`
	// ProbesPerOp carries the "probes/op" metric of the plan cold-miss rows:
	// simulator probes per planned request. The exact-vs-guided ratio is the
	// headline saving of the guided schedule search; 0 for other rows.
	ProbesPerOp float64 `json:"probes_per_op,omitempty"`
	// P50Ms/P99Ms/P999Ms carry the latency distribution of the closed-loop
	// load rows (single-node and shard-tier); 0 for other rows. The tier's
	// warm-hit P99 staying within 2× of the single node's is the sharding
	// acceptance bar.
	P50Ms  float64 `json:"p50_ms,omitempty"`
	P99Ms  float64 `json:"p99_ms,omitempty"`
	P999Ms float64 `json:"p999_ms,omitempty"`
	// ColdPlanRate is the load rows' fraction of successful responses that ran
	// the planner (outcome "computed").
	ColdPlanRate float64 `json:"cold_plan_rate,omitempty"`
}

// benchBaseline is the BENCH_BASELINE.json document.
type benchBaseline struct {
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// runBench runs every row through testing.Benchmark, writes the JSON document
// to stdout and, when outDir is set, to outDir/BENCH_BASELINE.json. The rows
// are the microbench registry's — the bodies `go test -bench=Micro` runs — so
// the numbers are comparable with `go test -bench -benchmem` runs. A row that
// fails aborts the run before anything is written: its zero result would not
// encode (NaN ns/op), and a snapshot missing a row is not a snapshot.
func runBench(rows []microbench.Row, stdout io.Writer, outDir string) error {
	doc := benchBaseline{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, row := range rows {
		r := testing.Benchmark(row.Run)
		if r.N == 0 {
			return fmt.Errorf("bench row %s failed", row.Name)
		}
		nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
		doc.Benchmarks = append(doc.Benchmarks, benchResult{
			Name:         row.Name,
			Iterations:   r.N,
			NsPerOp:      nsPerOp,
			AllocsPerOp:  r.AllocsPerOp(),
			BytesPerOp:   r.AllocedBytesPerOp(),
			OpsPerSec:    r.Extra["ops/s"],
			ProbesPerOp:  r.Extra["probes/op"],
			P50Ms:        r.Extra["p50_ms"],
			P99Ms:        r.Extra["p99_ms"],
			P999Ms:       r.Extra["p999_ms"],
			ColdPlanRate: r.Extra["cold_rate"],
		})
		fmt.Fprintf(os.Stderr, "bench %-40s %12.0f ns/op %6d allocs/op\n", row.Name, nsPerOp, r.AllocsPerOp())
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if _, err := stdout.Write(out); err != nil {
		return err
	}
	if outDir != "" {
		return os.WriteFile(filepath.Join(outDir, "BENCH_BASELINE.json"), out, 0o644)
	}
	return nil
}
