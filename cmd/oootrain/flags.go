package main

import (
	"fmt"

	"oooback/internal/train"
)

// runConfig is the cross-checkable subset of oootrain's flags.
type runConfig struct {
	arch         string
	schedule     string
	k            int
	steps        int
	replicas     int
	stages       int
	microbatches int
	pipeSched    string
	partition    string
	noDWFill     bool
	memBudget    int64
}

// validateConfig rejects conflicting or nonsensical flag combinations before
// any training starts. set holds the flag names the user passed explicitly
// (from flag.Visit); batchN is the examples per step for the chosen arch and
// L its layer count. On success it returns the resolved pipeline schedule and
// microbatch count (meaningful only when cfg.stages > 1).
func validateConfig(cfg runConfig, set map[string]bool, batchN, L int) (train.PipeSchedule, int, error) {
	if cfg.steps < 1 {
		return 0, 0, fmt.Errorf("-steps %d: need at least one step", cfg.steps)
	}
	if cfg.replicas < 1 {
		return 0, 0, fmt.Errorf("-replicas %d: need ≥ 1", cfg.replicas)
	}
	if cfg.stages < 1 {
		return 0, 0, fmt.Errorf("-stages %d: need ≥ 1", cfg.stages)
	}
	if cfg.stages > 1 && cfg.replicas > 1 {
		return 0, 0, fmt.Errorf("-stages and -replicas are mutually exclusive (pipeline vs data parallelism)")
	}
	if set["k"] && cfg.schedule != "reverse-k" {
		return 0, 0, fmt.Errorf("-k only applies to -schedule reverse-k, not %q", cfg.schedule)
	}
	if set["mem-budget"] {
		if cfg.memBudget <= 0 {
			return 0, 0, fmt.Errorf("-mem-budget %d: need a positive byte budget", cfg.memBudget)
		}
		if cfg.replicas > 1 || cfg.stages > 1 {
			return 0, 0, fmt.Errorf("-mem-budget requires a single-process run, not -replicas/-stages")
		}
	}
	if cfg.replicas <= 1 {
		if set["sync"] {
			return 0, 0, fmt.Errorf("-sync requires -replicas > 1")
		}
		if set["buckets"] {
			return 0, 0, fmt.Errorf("-buckets requires -replicas > 1")
		}
	}
	if cfg.stages <= 1 {
		for _, f := range []string{"microbatches", "pipe-sched", "no-dw-fill", "partition"} {
			if set[f] {
				return 0, 0, fmt.Errorf("-%s requires -stages > 1", f)
			}
		}
		return 0, 0, nil
	}
	for _, f := range []string{"schedule", "k"} {
		if set[f] {
			return 0, 0, fmt.Errorf("-%s requires -stages 1: the pipeline runs its own backward order", f)
		}
	}
	if cfg.stages > L {
		return 0, 0, fmt.Errorf("-stages %d exceeds the %d layers of -arch %s", cfg.stages, L, cfg.arch)
	}
	if cfg.partition != "" && cfg.partition != "even" && cfg.partition != "balanced" {
		return 0, 0, fmt.Errorf("-partition %q: want even or balanced", cfg.partition)
	}
	micro := cfg.microbatches
	if micro == 0 {
		micro = cfg.stages
	}
	if micro < cfg.stages {
		return 0, 0, fmt.Errorf("-microbatches %d < -stages %d would leave permanent pipeline bubbles", micro, cfg.stages)
	}
	if micro > batchN {
		return 0, 0, fmt.Errorf("-microbatches %d exceeds the %d-example batch of -arch %s", micro, batchN, cfg.arch)
	}
	psched, err := train.ParsePipeSchedule(cfg.pipeSched)
	if err != nil {
		return 0, 0, fmt.Errorf("-pipe-sched: %v", err)
	}
	return psched, micro, nil
}
