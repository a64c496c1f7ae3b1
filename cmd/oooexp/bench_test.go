package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oooback/internal/microbench"
)

// once makes testing.Benchmark stop after a row's first timed iteration
// instead of measuring it for a second.
func once(t *testing.T) {
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
}

func okRow(name string) microbench.Row {
	return microbench.Row{Name: name, Step: func(testing.TB) (func(), func(*testing.B)) {
		return func() {}, nil
	}}
}

// TestRunBenchFailedRow: a row that calls b.Fatal yields the zero result;
// runBench must name it and write nothing — neither stdout nor the -o file —
// instead of failing to encode NaN after every row has run.
func TestRunBenchFailedRow(t *testing.T) {
	once(t)
	rows := []microbench.Row{
		okRow("Fine"),
		{Name: "Boom", Bench: func(b *testing.B) { b.Fatal("boom") }},
		okRow("NeverRun"),
	}
	dir := t.TempDir()
	var stdout bytes.Buffer
	err := runBench(rows, &stdout, dir)
	if err == nil || !strings.Contains(err.Error(), "Boom") {
		t.Fatalf("runBench error = %v, want one naming row Boom", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout holds %d bytes after a failed row, want none", stdout.Len())
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_BASELINE.json")); !os.IsNotExist(err) {
		t.Errorf("BENCH_BASELINE.json written after a failed row (stat err %v)", err)
	}
}

// TestRunBenchDocument: stdout and the -o file hold the same valid JSON
// document, one entry per row in registry order.
func TestRunBenchDocument(t *testing.T) {
	once(t)
	dir := t.TempDir()
	var stdout bytes.Buffer
	if err := runBench([]microbench.Row{okRow("A"), okRow("B")}, &stdout, dir); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(filepath.Join(dir, "BENCH_BASELINE.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, stdout.Bytes()) {
		t.Error("-o file differs from stdout")
	}
	var doc benchBaseline
	if err := json.Unmarshal(file, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 2 || doc.Benchmarks[0].Name != "A" || doc.Benchmarks[1].Name != "B" {
		t.Fatalf("rows = %+v, want A then B", doc.Benchmarks)
	}
	if doc.Benchmarks[0].Iterations == 0 {
		t.Errorf("row A not measured: %+v", doc.Benchmarks[0])
	}
}
