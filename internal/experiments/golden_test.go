package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the committed reports under results/")

// resultsDir holds the committed report of every experiment — the files
// `oooexp -o results all` writes and README/EXPERIMENTS.md quote.
const resultsDir = "../../results"

// TestGoldenSnapshots pins every registered experiment to its committed
// report, byte for byte. The snapshots guard the calibrated numbers against
// accidental regression; intentional recalibration regenerates them with
// `go test -run Golden -update ./internal/experiments`.
func TestGoldenSnapshots(t *testing.T) {
	committed, err := filepath.Glob(filepath.Join(resultsDir, "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range committed {
		if _, ok := Get(strings.TrimSuffix(filepath.Base(path), ".txt")); !ok {
			t.Errorf("%s belongs to no registered experiment", path)
		}
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			e, _ := Get(id)
			got := e.Run()
			path := filepath.Join(resultsDir, id+".txt")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s output changed; if intentional, regenerate with -update.\n--- got ---\n%s\n--- want ---\n%s",
					id, got, want)
			}
		})
	}
}
