package experiments

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11a", "fig11b", "fig12", "fig13a", "fig13b",
		"mem-single", "disc-datapar", "semantics",
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(IDs()) < len(want) {
		t.Fatalf("registry has %d entries, want ≥ %d", len(IDs()), len(want))
	}
}

func TestEveryExperimentProducesOutput(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			e, _ := Get(id)
			out := e.Run()
			if len(strings.TrimSpace(out)) == 0 {
				t.Fatalf("%s produced empty output", id)
			}
		})
	}
}

func TestFig7ShowsOOOWins(t *testing.T) {
	out := Fig7()
	if !strings.Contains(out, "densenet121-k12-b32") {
		t.Fatalf("fig7 missing model rows:\n%s", out)
	}
	// Every OOO/XLA ratio (second-to-last column, before the SM-util pair)
	// should be ≥ 1.00.
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "-b") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		ratio := fields[len(fields)-2]
		if strings.HasPrefix(ratio, "0.") {
			t.Errorf("OOO slower than XLA in row: %s", line)
		}
	}
}

func TestSemanticsReportsIdentical(t *testing.T) {
	out := Semantics()
	if strings.Contains(out, "false") {
		t.Fatalf("semantics check failed:\n%s", out)
	}
	if !strings.Contains(out, "loss fell") {
		t.Fatalf("semantics report missing convergence note:\n%s", out)
	}
}

func TestFig4ShowsImprovement(t *testing.T) {
	out := Fig4()
	for _, label := range []string{"(a:", "(b:", "(c:"} {
		if !strings.Contains(out, label) {
			t.Fatalf("fig4 missing section %s:\n%s", label, out)
		}
	}
}

// TestRunAllParallelMatchesSequential: every report comes out the same on
// four goroutines as on one.
func TestRunAllParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run")
	}
	ids := IDs()
	seq, par := RunNamedParallel(ids, 1), RunNamedParallel(ids, 4)
	for i, id := range ids {
		if seq[i] != par[i] {
			t.Errorf("%s: parallel report differs from sequential", id)
		}
	}
}
