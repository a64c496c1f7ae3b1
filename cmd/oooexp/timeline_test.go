package main

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain lets a test run the test binary as the oooexp command: with
// OOOEXP_AS_MAIN=1 in its environment the process runs main on its own
// arguments instead of the tests, so exit statuses are checked for real.
func TestMain(m *testing.M) {
	if os.Getenv("OOOEXP_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// oooexp runs the command with args and returns its combined output and
// exit code.
func oooexp(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "OOOEXP_AS_MAIN=1")
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); ok {
		return string(out), ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// TestTimelineWritesTraces: `oooexp -o DIR timeline singlegpu pipeline`
// writes, per run, a Chrome trace in which every lane carries at least one
// span, and an SVG that parses as XML.
func TestTimelineWritesTraces(t *testing.T) {
	dir := t.TempDir()
	if out, code := oooexp(t, "-o", dir, "timeline", "singlegpu", "pipeline"); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for run, minLanes := range map[string]int{"singlegpu": 1, "pipeline": 4} {
		buf, err := os.ReadFile(filepath.Join(dir, run+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Ph   string
				TID  int
				Args struct{ Name string }
			}
		}
		if err := json.Unmarshal(buf, &doc); err != nil {
			t.Fatalf("%s.json: %v", run, err)
		}
		lanes := map[int]string{}
		spans := map[int]int{}
		for _, ev := range doc.TraceEvents {
			switch ev.Ph {
			case "M":
				lanes[ev.TID] = ev.Args.Name
			case "X":
				spans[ev.TID]++
			}
		}
		if len(lanes) < minLanes {
			t.Errorf("%s.json: %d lanes, want at least %d", run, len(lanes), minLanes)
		}
		for tid, name := range lanes {
			if spans[tid] == 0 {
				t.Errorf("%s.json: lane %q has no spans", run, name)
			}
		}

		svg, err := os.ReadFile(filepath.Join(dir, run+".svg"))
		if err != nil {
			t.Fatal(err)
		}
		dec := xml.NewDecoder(bytes.NewReader(svg))
		for {
			if _, err := dec.Token(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("%s.svg: %v", run, err)
			}
		}
	}
}

// TestTimelineRejectsUnknownRun: a run name other than singlegpu or
// pipeline, or a missing -o, exits non-zero and writes nothing.
func TestTimelineRejectsUnknownRun(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-o", dir, "timeline", "gpu"},
		{"-o", dir, "timeline", "singlegpu", "fig2"},
		{"-o", dir, "timeline"},
		{"timeline", "singlegpu"},
	} {
		if out, code := oooexp(t, args...); code == 0 {
			t.Errorf("oooexp %q exited 0:\n%s", args, out)
		}
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("rejected runs wrote %d files", len(files))
	}
}

// TestTimelineDeterministic: two timeline runs write byte-identical traces,
// so the exported files can be diffed across builds.
func TestTimelineDeterministic(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	for _, dir := range []string{a, b} {
		if out, code := oooexp(t, "-o", dir, "timeline", "singlegpu", "pipeline"); code != 0 {
			t.Fatalf("exit %d:\n%s", code, out)
		}
	}
	for _, name := range []string{"singlegpu.json", "singlegpu.svg", "pipeline.json", "pipeline.svg"} {
		first, err := os.ReadFile(filepath.Join(a, name))
		if err != nil {
			t.Fatal(err)
		}
		second, err := os.ReadFile(filepath.Join(b, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s differs between two runs", name)
		}
	}
}
