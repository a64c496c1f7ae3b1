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

// TestTimelineWritesTraces: `oooexp -o DIR timeline` with every run writes
// ten files: per run, a Chrome trace in which every lane carries at least
// one span, and an SVG that parses as XML. The real-engine traces show their
// engine's shape: the pipeline runs fwd, dO and dWFill on both stage lanes
// and waits on one or two of them; dp2 runs fwd and dW on two replica lanes
// and reduces on a third.
func TestTimelineWritesTraces(t *testing.T) {
	dir := t.TempDir()
	minLanes := map[string]int{"singlegpu": 1, "pipeline": 4, "train-ooo": 1, "train-pipe2x4": 2, "train-dp2": 3}
	args := []string{"-o", dir, "timeline"}
	for run := range minLanes {
		args = append(args, run)
	}
	if out, code := oooexp(t, args...); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if files, _ := os.ReadDir(dir); len(files) != 2*len(minLanes) {
		t.Errorf("%d files, want %d", len(files), 2*len(minLanes))
	}
	// lanesByKind[run][kind] is the set of thread ids carrying that span kind.
	lanesByKind := map[string]map[string]map[int]bool{}
	for run, min := range minLanes {
		buf, err := os.ReadFile(filepath.Join(dir, run+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Cat, Ph string
				TID     int
				Args    struct{ Name string }
			}
		}
		if err := json.Unmarshal(buf, &doc); err != nil {
			t.Fatalf("%s.json: %v", run, err)
		}
		lanes := map[int]string{}
		spans := map[int]int{}
		kinds := map[string]map[int]bool{}
		for _, ev := range doc.TraceEvents {
			switch ev.Ph {
			case "M":
				lanes[ev.TID] = ev.Args.Name
			case "X":
				spans[ev.TID]++
				if kinds[ev.Cat] == nil {
					kinds[ev.Cat] = map[int]bool{}
				}
				kinds[ev.Cat][ev.TID] = true
			}
		}
		lanesByKind[run] = kinds
		if len(lanes) < min {
			t.Errorf("%s.json: %d lanes, want at least %d", run, len(lanes), min)
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

	ooo := lanesByKind["train-ooo"]
	for _, kind := range []string{"fwd", "dO", "dW", "update"} {
		if len(ooo[kind]) == 0 {
			t.Errorf("train-ooo: no %s spans", kind)
		}
	}
	pipe := lanesByKind["train-pipe2x4"]
	for _, kind := range []string{"fwd", "dO", "dWFill"} {
		if len(pipe[kind]) != 2 {
			t.Errorf("train-pipe2x4: %s spans on %d lanes, want one per stage (2)", kind, len(pipe[kind]))
		}
	}
	// Which stage waits with nothing to fill is the scheduler's call; that
	// somebody does is the pipeline's shape.
	if n := len(pipe["idle"]); n < 1 || n > 2 {
		t.Errorf("train-pipe2x4: idle spans on %d lanes, want 1 or 2 stage lanes", n)
	}
	dp := lanesByKind["train-dp2"]
	if len(dp["fwd"]) != 2 || len(dp["dW"]) != 2 || len(dp["reduce"]) != 1 {
		t.Errorf("train-dp2: fwd on %d lanes, dW on %d, reduce on %d; want 2, 2, 1",
			len(dp["fwd"]), len(dp["dW"]), len(dp["reduce"]))
	}
	for tid := range dp["reduce"] {
		if dp["fwd"][tid] {
			t.Error("train-dp2: reduce shares a replica lane")
		}
	}
}

// TestTimelineRejectsUnknownRun: an unknown run name, or a missing -o, exits
// non-zero and writes nothing.
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
