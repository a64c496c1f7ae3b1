package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"oooback/internal/microbench"
)

// TestRunExecTraces runs `oooexp exec -o DIR` on the MLP reference net: every
// file it writes parses as a Chrome trace, the pipeline trace has one lane
// per stage showing fwd/dO/dWFill (and idle where a stage waited), and the
// data-parallel trace has two replica lanes plus the reducer's.
func TestRunExecTraces(t *testing.T) {
	dir := t.TempDir()
	if err := runExec([]microbench.RefNet{microbench.MLP()}, io.Discard, dir); err != nil {
		t.Fatal(err)
	}
	// lanesByKind[file][kind] is the set of thread ids carrying that span kind.
	lanesByKind := map[string]map[string]map[int]bool{}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		buf, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Cat, Ph string
				TID     int
			}
		}
		if err := json.Unmarshal(buf, &doc); err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		kinds := map[string]map[int]bool{}
		for _, ev := range doc.TraceEvents {
			if ev.Ph != "X" {
				continue
			}
			if kinds[ev.Cat] == nil {
				kinds[ev.Cat] = map[int]bool{}
			}
			kinds[ev.Cat][ev.TID] = true
		}
		if len(kinds) == 0 {
			t.Fatalf("%s has no spans", f.Name())
		}
		lanesByKind[f.Name()] = kinds
	}
	if len(files) != 4+2 {
		t.Fatalf("%d trace files, want 4 engine×schedule + pipeline + dp2", len(files))
	}
	pipe := lanesByKind["exec-mlp-pipeline.trace.json"]
	for _, kind := range []string{"fwd", "dO", "dWFill"} {
		if len(pipe[kind]) != 2 {
			t.Errorf("pipeline trace: %s spans on %d lanes, want one per stage (2)", kind, len(pipe[kind]))
		}
	}
	// Which stage waits with nothing to fill is the scheduler's call; that
	// somebody does is the pipeline's shape.
	if n := len(pipe["idle"]); n < 1 || n > 2 {
		t.Errorf("pipeline trace: idle spans on %d lanes, want 1 or 2 stage lanes", n)
	}
	dp := lanesByKind["exec-mlp-dp2.trace.json"]
	if len(dp["fwd"]) != 2 || len(dp["dW"]) != 2 || len(dp["reduce"]) != 1 {
		t.Errorf("dp2 trace: fwd on %d lanes, dW on %d, reduce on %d; want 2, 2, 1",
			len(dp["fwd"]), len(dp["dW"]), len(dp["reduce"]))
	}
	for tid := range dp["reduce"] {
		if dp["fwd"][tid] {
			t.Error("dp2 trace: reduce shares a replica lane")
		}
	}
}
