package main

import (
	"strings"
	"testing"

	"oooback/internal/train"
)

// base is a default flag state: nothing explicitly set beyond what each case
// overrides.
func base() runConfig {
	return runConfig{
		arch: "mlp", schedule: "fastforward", k: 3, steps: 15,
		replicas: 1, stages: 1, pipeSched: "gpipe",
	}
}

func TestValidateConfigAccepts(t *testing.T) {
	cases := []struct {
		name      string
		mut       func(*runConfig)
		set       []string
		wantMicro int
		wantSched train.PipeSchedule
	}{
		{"defaults", func(c *runConfig) {}, nil, 0, 0},
		{"replicas", func(c *runConfig) { c.replicas = 4 }, []string{"replicas", "sync", "buckets"}, 0, 0},
		{"reverse-k with k", func(c *runConfig) { c.schedule = "reverse-k"; c.k = 2 }, []string{"k"}, 0, 0},
		{"stages default micro", func(c *runConfig) { c.stages = 3 }, []string{"stages"}, 3, train.PipeGPipe},
		{"stages explicit micro", func(c *runConfig) { c.stages = 2; c.microbatches = 8 },
			[]string{"stages", "microbatches"}, 8, train.PipeGPipe},
		{"stages 1f1b no fill", func(c *runConfig) { c.stages = 3; c.pipeSched = "1f1b"; c.noDWFill = true },
			[]string{"stages", "pipe-sched", "no-dw-fill"}, 3, train.Pipe1F1B},
		{"stages balanced partition", func(c *runConfig) { c.stages = 3; c.partition = "balanced" },
			[]string{"stages", "partition"}, 3, train.PipeGPipe},
		{"mem budget", func(c *runConfig) { c.memBudget = 1 << 20 }, []string{"mem-budget"}, 0, 0},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		set := map[string]bool{}
		for _, f := range tc.set {
			set[f] = true
		}
		psched, micro, err := validateConfig(cfg, set, 32, 5)
		if err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
			continue
		}
		if cfg.stages > 1 && (micro != tc.wantMicro || psched != tc.wantSched) {
			t.Errorf("%s: got (sched=%v micro=%d), want (sched=%v micro=%d)",
				tc.name, psched, micro, tc.wantSched, tc.wantMicro)
		}
	}
}

func TestValidateConfigRejects(t *testing.T) {
	cases := []struct {
		name    string
		mut     func(*runConfig)
		set     []string
		wantErr string
	}{
		{"zero steps", func(c *runConfig) { c.steps = 0 }, nil, "-steps"},
		{"zero replicas", func(c *runConfig) { c.replicas = 0 }, nil, "-replicas"},
		{"zero stages", func(c *runConfig) { c.stages = 0 }, nil, "-stages"},
		{"stages with replicas", func(c *runConfig) { c.stages = 2; c.replicas = 2 },
			[]string{"stages", "replicas"}, "mutually exclusive"},
		{"k without reverse-k", func(c *runConfig) { c.k = 2 }, []string{"k"}, "-k only applies"},
		{"sync without replicas", func(c *runConfig) {}, []string{"sync"}, "-sync requires"},
		{"buckets without replicas", func(c *runConfig) {}, []string{"buckets"}, "-buckets requires"},
		{"microbatches without stages", func(c *runConfig) { c.microbatches = 4 },
			[]string{"microbatches"}, "-microbatches requires"},
		{"pipe-sched without stages", func(c *runConfig) { c.pipeSched = "1f1b" },
			[]string{"pipe-sched"}, "-pipe-sched requires"},
		{"no-dw-fill without stages", func(c *runConfig) { c.noDWFill = true },
			[]string{"no-dw-fill"}, "-no-dw-fill requires"},
		{"schedule with stages", func(c *runConfig) { c.stages = 2; c.schedule = "conventional" },
			[]string{"stages", "schedule"}, "-schedule requires -stages 1"},
		{"reverse-k with stages", func(c *runConfig) { c.stages = 2; c.schedule = "reverse-k"; c.k = 2 },
			[]string{"stages", "schedule", "k"}, "-schedule requires -stages 1"},
		{"k with stages", func(c *runConfig) { c.stages = 2; c.schedule = "reverse-k"; c.k = 2 },
			[]string{"stages", "k"}, "-k requires -stages 1"},
		{"stages exceed layers", func(c *runConfig) { c.stages = 6 }, []string{"stages"}, "exceeds the 5 layers"},
		{"micro below stages", func(c *runConfig) { c.stages = 3; c.microbatches = 2 },
			[]string{"stages", "microbatches"}, "permanent pipeline bubbles"},
		{"micro above batch", func(c *runConfig) { c.stages = 2; c.microbatches = 33 },
			[]string{"stages", "microbatches"}, "exceeds the 32-example batch"},
		{"bad pipe-sched", func(c *runConfig) { c.stages = 2; c.pipeSched = "zigzag" },
			[]string{"stages", "pipe-sched"}, "-pipe-sched"},
		{"partition without stages", func(c *runConfig) { c.partition = "balanced" },
			[]string{"partition"}, "-partition requires"},
		{"bad partition", func(c *runConfig) { c.stages = 2; c.partition = "zigzag" },
			[]string{"stages", "partition"}, "-partition"},
		{"zero mem budget", func(c *runConfig) { c.memBudget = 0 }, []string{"mem-budget"}, "-mem-budget"},
		{"mem budget with replicas", func(c *runConfig) { c.memBudget = 1 << 20; c.replicas = 4 },
			[]string{"mem-budget", "replicas"}, "single-process"},
		{"mem budget with stages", func(c *runConfig) { c.memBudget = 1 << 20; c.stages = 2 },
			[]string{"mem-budget", "stages"}, "single-process"},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		set := map[string]bool{}
		for _, f := range tc.set {
			set[f] = true
		}
		if _, _, err := validateConfig(cfg, set, 32, 5); err == nil {
			t.Errorf("%s: expected error", tc.name)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestCalibModelFromMeasuredStats(t *testing.T) {
	st := train.PipeStepStats{
		Stages: 2, MicroBatches: 4, FillDW: true,
		Wall: 100, PerStage: []train.StageStats{
			{Fwd: 40, DO: 30, DWInline: 0, DWFill: 20, Idle: 10},
			{Fwd: 50, DO: 40, DWInline: 5, DWFill: 5, Idle: 0},
		},
	}
	m := calibModel([]train.PipeStepStats{st})
	if err := m.Validate(); err != nil {
		t.Fatalf("calibrated model invalid: %v", err)
	}
	if len(m.Layers) != 2 {
		t.Fatalf("got %d layers, want 2", len(m.Layers))
	}
	if m.Layers[0].Fwd != 40 || m.Layers[0].DO != 30 || m.Layers[0].DW != 20 {
		t.Fatalf("stage0 costs = %v/%v/%v", m.Layers[0].Fwd, m.Layers[0].DO, m.Layers[0].DW)
	}
	if m.Layers[1].DW != 10 {
		t.Fatalf("stage1 DW = %v, want inline+fill = 10", m.Layers[1].DW)
	}
	// With several steps the first is dropped as warmup.
	warm := st
	warm.PerStage = []train.StageStats{{Fwd: 400}, {Fwd: 500}}
	m = calibModel([]train.PipeStepStats{warm, st, st})
	if m.Layers[0].Fwd != 40 {
		t.Fatalf("warmup step not skipped: stage0 Fwd = %v", m.Layers[0].Fwd)
	}
}
