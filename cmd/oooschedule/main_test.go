package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestDumpAllMatchesSchedules: `oooschedule -all` regenerates the committed
// schedules/ directory byte for byte, file for file.
func TestDumpAllMatchesSchedules(t *testing.T) {
	dir := t.TempDir()
	if err := dumpAll(dir); err != nil {
		t.Fatal(err)
	}
	const committed = "../../schedules"
	names := func(d string) []string {
		ents, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range ents {
			out = append(out, e.Name())
		}
		return out
	}
	got, want := names(dir), names(committed)
	if !slices.Equal(got, want) {
		t.Fatalf("dumpAll wrote %v, schedules/ holds %v", got, want)
	}
	for _, name := range want {
		g, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		w, err := os.ReadFile(filepath.Join(committed, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s differs from the committed schedule", name)
		}
	}
}
