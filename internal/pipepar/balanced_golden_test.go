package pipepar

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oooback/internal/models"
)

var updateBalanced = flag.Bool("update", false, "rewrite testdata/balanced_golden.txt from the current placement")

// runs renders an allocation as run-length "stage×count" pairs, which holds
// every entry of the slice, in order.
func runs(alloc []int) string {
	var b strings.Builder
	for i := 0; i < len(alloc); {
		j := i
		for j < len(alloc) && alloc[j] == alloc[i] {
			j++
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d×%d", alloc[i], j-i)
		i = j
	}
	return b.String()
}

// TestBalancedContiguousGolden pins the balanced contiguous placement the
// pipeline reports and the planner's pipeline baseline simulate: for every
// zoo model under the V100 profile and n ∈ {2,3,4,8,16,32} with n ≤ L, the
// layer → GPU map BalancedContiguous returns, entry for entry.
func TestBalancedContiguousGolden(t *testing.T) {
	var b strings.Builder
	for _, e := range models.Zoo() {
		m := e.Build(models.V100Profile())
		L := len(m.Layers)
		for _, n := range []int{2, 3, 4, 8, 16, 32} {
			if n > L {
				continue
			}
			fmt.Fprintf(&b, "%s L=%d n=%d: %s\n", e.Name, L, n, runs(BalancedContiguous(m, n)))
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "balanced_golden.txt")
	if *updateBalanced {
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
		t.Errorf("balanced placement moved; if intentional, regenerate with -update.\n--- got ---\n%s", got)
	}
}

// TestBalancedContiguousMoreGPUsThanLayers: with more GPUs than layers, each
// layer gets a GPU of its own.
func TestBalancedContiguousMoreGPUsThanLayers(t *testing.T) {
	m := ffnn(3)
	if got := runs(BalancedContiguous(m, 8)); got != "0×1 1×1 2×1" {
		t.Fatalf("alloc = %s, want one layer per GPU", got)
	}
}
