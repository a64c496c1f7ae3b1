package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestReportsGolden: `oooexp search` and `oooexp pareto` print the committed
// reports byte for byte, and with -o write the same bytes to DIR/<name>.txt.
// Between them they run every plansearch entry point over the whole zoo, so
// a change to the engine that moves any probe count, pick or frontier point
// shows here.
func TestReportsGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(io.Writer, string) error
	}{{"search", runSearch}, {"pareto", runPareto}} {
		want, err := os.ReadFile(filepath.Join("testdata", c.name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		var got bytes.Buffer
		if err := c.run(&got, dir); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: report differs from testdata/%s.txt\n got:\n%s", c.name, c.name, got.Bytes())
		}
		written, err := os.ReadFile(filepath.Join(dir, c.name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(written, want) {
			t.Errorf("%s: -o file differs from the printed report", c.name)
		}
	}
}
