package graph

import (
	"time"

	"oooback/internal/models"
)

// RecomputeResult reports a backward pass executed under activation
// checkpointing (gradient checkpointing, [Chen et al. '16], discussed in §6
// of the paper): only every c-th layer input is stored by the forward pass;
// the rest are re-materialized from the nearest checkpoint when the backward
// pass first needs them.
type RecomputeResult struct {
	// Profile is the live-memory timeline, one entry per schedule position
	// (same convention as MemoryProfile).
	Profile []int64
	// RecomputeTime is the extra forward time spent re-materializing
	// discarded activations.
	RecomputeTime time.Duration
	// Recomputed counts the re-materialized activations.
	Recomputed int
}

// Peak returns the profile maximum.
func (r RecomputeResult) Peak() int64 {
	var m int64
	for _, v := range r.Profile {
		if v > m {
			m = v
		}
	}
	return m
}

// MemoryProfileRecompute is MemoryProfile under checkpointing every `every`
// layers (every ≤ 1 stores every activation and reduces to MemoryProfile):
// the forward pass stores layer i's input a_{i−1} iff (i−1) % every == 0,
// the segment boundaries, and the Walker re-forwards a discarded one from
// the checkpoint below it when δW_i needs it (see Walker). The lifetime rule
// is the walk's own, so the §6 argument is checkable: reverse first-k defers
// δW of the first k layers, which under checkpointing re-materialises their
// activations late — but by then the later segments' memory has been
// released. The schedule must be valid; MemoryProfileRecompute panics with
// Validate's error otherwise.
func MemoryProfileRecompute(m *models.Model, s BackwardSchedule, every int) RecomputeResult {
	res := RecomputeResult{Profile: make([]int64, len(s))}
	w := Walker{every: every}
	w.profile(m, s, res.Profile)
	res.RecomputeTime, res.Recomputed = w.refwdTime, w.refwd
	return res
}
