package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oooback/internal/experiments"
)

// TestListNamesEveryExperiment: `oooexp list` prints one line per registered
// experiment, in registry order, each starting with the id and naming its
// title.
func TestListNamesEveryExperiment(t *testing.T) {
	out, code := oooexp(t, "list")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	ids := experiments.IDs()
	if len(lines) != len(ids) {
		t.Fatalf("list printed %d lines for %d experiments:\n%s", len(lines), len(ids), out)
	}
	for i, id := range ids {
		e, _ := experiments.Get(id)
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != id || !strings.HasSuffix(lines[i], e.Title) {
			t.Errorf("line %d = %q, want id %q and title %q", i, lines[i], id, e.Title)
		}
	}
}

// TestExperimentPrintsCommittedReport: `oooexp -o DIR fig2` prints the
// report under its header and writes it to DIR/fig2.txt, byte-identical to
// the committed results/fig2.txt; so does the planner's pareto report.
func TestExperimentPrintsCommittedReport(t *testing.T) {
	for _, id := range []string{"fig2", "pareto"} {
		want, err := os.ReadFile(filepath.Join("..", "..", "results", id+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		out, code := oooexp(t, "-o", dir, id)
		if code != 0 {
			t.Fatalf("%s: exit %d:\n%s", id, code, out)
		}
		e, _ := experiments.Get(id)
		if printed := "==== " + id + ": " + e.Title + " ====\n" + string(want) + "\n"; out != printed {
			t.Errorf("printed report differs from results/%s.txt:\n%s", id, out)
		}
		written, err := os.ReadFile(filepath.Join(dir, id+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(written, want) {
			t.Errorf("-o file differs from results/%s.txt:\n%s", id, written)
		}
	}
}

// TestUnknownExperimentExits: an unknown experiment id exits 1 and names the
// id, while the known ids of the same call still run and write their files.
func TestUnknownExperimentExits(t *testing.T) {
	dir := t.TempDir()
	out, code := oooexp(t, "-o", dir, "no-such-fig", "fig2")
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, `unknown experiment "no-such-fig"`) {
		t.Errorf("output does not name the unknown id:\n%s", out)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Name() != "fig2.txt" {
		t.Errorf("wrote %v, want only fig2.txt", files)
	}
}
