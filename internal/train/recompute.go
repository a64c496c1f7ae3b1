package train

import (
	"fmt"

	"oooback/internal/graph"
	"oooback/internal/nn"
	"oooback/internal/tensor"
)

// RecomputeStats reports one checkpointed training step (StepRecompute).
type RecomputeStats struct {
	BackwardStats
	// Every is the checkpoint interval the step ran under (1 = full
	// retention, no recompute).
	Every int
	// PeakLiveBytes is the high-water mark of the step's byte ledger:
	// resident activations + owned layer stash + live gradient tensors,
	// under the checkpointing lifetime rules (graph.MemoryProfileRecompute's
	// discipline executed on the real network).
	PeakLiveBytes int64
	// CheckpointBytes is the activation bytes resident when the backward
	// pass starts — the checkpoint set the forward pass kept.
	CheckpointBytes int64
	// RecomputedLayers counts forward re-runs issued by the backward pass to
	// re-materialize discarded state.
	RecomputedLayers int
	// RecomputeShare is RecomputedLayers / L.
	RecomputeShare float64
}

// StepRecompute runs one full training step under activation checkpointing
// (gradient checkpointing, §6 of the paper): the forward pass keeps only
// every `every`-th activation; the backward pass re-materializes each
// discarded segment from its nearest surviving checkpoint the first time a
// layer's backward needs it. every ≤ 1 disables checkpointing (full
// retention, no recompute) but still reports the byte ledger, making it the
// comparison baseline.
//
// Parameter gradients, loss and the post-step parameters are bitwise
// identical to train.Step on the same state for every legal schedule: every
// layer must implement nn.Stasher (Forward is a pure function of input and
// parameters), so a re-run rebuilds exactly the state the first run built.
// Only the serial engine supports checkpointing — segment re-runs mutate
// shared layer state, which would race with ExecConcurrent's δW pool.
//
// Every layer op — first forward, segment re-forward, δO, δW — runs through
// the pooled path on the executor's chain workspace (a nil receiver has none
// and walks the plain allocating methods). The byte ledger counts logical
// lifetimes and is the same either way: a pooled layer keeps its output
// buffer after the ledger released the activation, and what DropStash
// releases (masks, lowerings, index plans) is re-created by the re-run.
func (e *Executor) StepRecompute(n *Network, x *tensor.Tensor, labels []int,
	sched graph.BackwardSchedule, every int, opt nn.Optimizer) (float64, RecomputeStats, error) {
	if e.Mode() == ExecConcurrent {
		return 0, RecomputeStats{}, fmt.Errorf("train: recompute requires the serial engine, executor is %v", e.Mode())
	}
	L := len(n.Layers)
	if err := sched.Validate(L); err != nil {
		return 0, RecomputeStats{}, fmt.Errorf("train: %w", err)
	}
	if every < 1 {
		every = 1
	}
	stashers := make([]nn.Stasher, L)
	if every > 1 {
		for i, l := range n.Layers {
			st, ok := l.(nn.Stasher)
			if !ok {
				return 0, RecomputeStats{}, fmt.Errorf(
					"train: layer %d (%s) does not support recompute: its forward pass is not re-runnable", i+1, l.Name())
			}
			stashers[i] = st
		}
	}

	var ws *tensor.Workspace
	if e != nil {
		ws = e.chainWS
	}
	stats := RecomputeStats{Every: every}
	var bytes int64
	bump := func() {
		if bytes > stats.PeakLiveBytes {
			stats.PeakLiveBytes = bytes
		}
	}
	tb := func(t *tensor.Tensor) int64 { return 8 * int64(t.Len()) }

	n.ZeroGrads()

	// Forward: run every layer; keep activation a_j only at checkpoint
	// boundaries (j % every == 0). The batch a_0 is always resident (the
	// data loader holds it). With checkpointing on, a layer's stash is
	// counted while its forward runs, then dropped — the backward pass
	// rebuilds it.
	acts := make([]*tensor.Tensor, L+1) // acts[j] = a_j, nil when discarded
	stashValid := make([]bool, L+1)
	acts[0] = x
	bytes += tb(x)
	bump()
	a := x
	for j := 1; j <= L; j++ {
		a = wsForward(n.Layers[j-1], a, ws)
		stashValid[j] = true
		if j < L {
			acts[j] = a
			bytes += tb(a)
		}
		if every > 1 {
			bytes += stashers[j-1].StashBytes()
			bump()
			// Discard what checkpointing does not keep.
			bytes -= stashers[j-1].StashBytes()
			stashers[j-1].DropStash()
			stashValid[j] = false
			if prev := j - 1; prev > 0 && prev%every != 0 {
				bytes -= tb(acts[prev])
				acts[prev] = nil
			}
		} else {
			bump()
		}
	}
	logits := a
	stats.CheckpointBytes = bytes
	loss, lossGrad := e.loss(logits, labels)

	// ensure rebuilds layer i's stash: re-run the forward segment from the
	// nearest resident activation below i. Legal schedules touch layers in
	// descending δO order, so the needed source is always still resident.
	ensure := func(i int) error {
		if stashValid[i] {
			return nil
		}
		c := i - 1
		for c > 0 && acts[c] == nil {
			c--
		}
		if acts[c] == nil {
			return fmt.Errorf("train: recompute source for layer %d already released", i)
		}
		src := acts[c]
		for j := c + 1; j <= i; j++ {
			src = wsForward(n.Layers[j-1], src, ws)
			stashValid[j] = true
			bytes += stashers[j-1].StashBytes()
			stats.RecomputedLayers++
			if j < L && acts[j] == nil {
				acts[j] = src
				bytes += tb(src)
			}
			bump()
		}
		return nil
	}

	// Backward: the exact op order and gradient math of Network.Backward,
	// with segment re-materialization and the checkpointing release rules.
	grads := make([]*tensor.Tensor, L+1)
	grads[L] = lossGrad
	bytes += tb(lossGrad)
	bump()
	doneDO := make([]bool, L+1)
	doneDW := make([]bool, L+1)
	live, peakLive := 1, 1
	for _, op := range sched {
		i := op.Layer
		if every > 1 {
			if err := ensure(i); err != nil {
				return 0, RecomputeStats{}, err
			}
		}
		g := grads[i]
		if g == nil {
			return 0, RecomputeStats{}, fmt.Errorf("train: schedule op %v ran after its gradient was released", op)
		}
		switch op.Kind {
		case graph.OutGrad:
			gin := wsInputGrad(n.Layers[i-1], g, ws)
			doneDO[i] = true
			if i > 1 {
				grads[i-1] = gin
				bytes += tb(gin)
				live++
				if live > peakLive {
					peakLive = live
				}
			}
		case graph.WeightGrad:
			wsWeightGrad(n.Layers[i-1], g, ws)
			doneDW[i] = true
		}
		bump()
		if doneDO[i] && doneDW[i] && grads[i] != nil {
			bytes -= tb(grads[i])
			grads[i] = nil
			live--
			if every > 1 {
				bytes -= stashers[i-1].StashBytes()
				stashers[i-1].DropStash()
				stashValid[i] = false
			}
		}
		// Sweep: a_{j-1} is dead once δW_j ran (graph.MemoryProfileRecompute's
		// release rule); re-materialized copies go the same way.
		for j := 1; j <= L; j++ {
			if doneDW[j] && acts[j-1] != nil {
				bytes -= tb(acts[j-1])
				acts[j-1] = nil
			}
		}
	}
	stats.PeakLiveGrads = peakLive
	stats.RecomputeShare = float64(stats.RecomputedLayers) / float64(L)

	opt.Step(n.Params())
	return loss, stats, nil
}
