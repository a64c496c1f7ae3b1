package train

import (
	"fmt"
	"time"

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

// recomputeState is the per-layer bookkeeping and byte ledger of one
// StepRecompute call. An executor retains it between steps, so a warm
// checkpointed step allocates nothing; a nil executor uses a fresh one.
type recomputeState struct {
	stashers   []nn.Stasher
	acts       []*tensor.Tensor // acts[j] = a_j, nil when discarded
	grads      []*tensor.Tensor
	stashValid []bool
	doneDO     []bool
	doneDW     []bool

	bytes int64
	stats RecomputeStats
}

// reset sizes the tables for an L-layer network and clears them.
func (r *recomputeState) reset(L, every int) {
	r.stashers = resized(r.stashers, L)
	r.acts, r.grads = resized(r.acts, L+1), resized(r.grads, L+1)
	r.stashValid, r.doneDO, r.doneDW = resized(r.stashValid, L+1), resized(r.doneDO, L+1), resized(r.doneDW, L+1)
	r.bytes, r.stats = 0, RecomputeStats{Every: every}
}

// resized returns s with n zeroed elements, reusing its array when it can.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// hold adds n bytes to the ledger and records a new peak.
func (r *recomputeState) hold(n int64) {
	r.bytes += n
	if r.bytes > r.stats.PeakLiveBytes {
		r.stats.PeakLiveBytes = r.bytes
	}
}

func tensorBytes(t *tensor.Tensor) int64 { return 8 * int64(t.Len()) }

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
// and walks the plain allocating methods), and reports on lane 0 like the
// serial engine's, a re-forward as OpRefwd. The byte ledger is logical and is
// the same either way: a pooled layer keeps its output buffer after the
// ledger released the activation, and a dropped stash (masks, lowerings, index
// plans) reads 0 bytes while its layer keeps the capacity for the re-run — so
// a warm step on an executor allocates nothing.
func (e *Executor) StepRecompute(n *Network, x *tensor.Tensor, labels []int,
	sched graph.BackwardSchedule, every int, opt nn.Optimizer) (float64, RecomputeStats, error) {
	if e.Mode() == ExecConcurrent {
		return 0, RecomputeStats{}, fmt.Errorf("train: recompute requires the serial engine, executor is %v", e.Mode())
	}
	L := len(n.Layers)
	var ws *tensor.Workspace
	r := &recomputeState{}
	if e != nil {
		ws, r = e.chainWS, &e.rec
		if _, err := e.analyze(L, sched); err != nil {
			return 0, RecomputeStats{}, err
		}
	} else if err := sched.Validate(L); err != nil {
		return 0, RecomputeStats{}, fmt.Errorf("train: %w", err)
	}
	if every < 1 {
		every = 1
	}
	r.reset(L, every)
	if every > 1 {
		for i, l := range n.Layers {
			st, ok := l.(nn.Stasher)
			if !ok {
				return 0, RecomputeStats{}, fmt.Errorf(
					"train: layer %d (%s) does not support recompute: its forward pass is not re-runnable", i+1, l.Name())
			}
			r.stashers[i] = st
		}
	}

	obs := e.observer()
	var wall, start time.Time
	if obs != nil {
		wall = time.Now()
	}
	n.ZeroGrads()
	if obs != nil {
		obs(OpEvent{Kind: OpZero, Start: wall, End: time.Now()})
	}

	// Forward: run every layer; keep activation a_j only at checkpoint
	// boundaries (j % every == 0). The batch a_0 is always resident (the
	// data loader holds it). With checkpointing on, a layer's stash is
	// counted while its forward runs, then dropped — the backward pass
	// rebuilds it.
	r.acts[0] = x
	r.hold(tensorBytes(x))
	a := x
	for j := 1; j <= L; j++ {
		a = e.forwardLayer(OpFwd, n.Layers[j-1], j, a, ws)
		r.stashValid[j] = true
		if j < L {
			r.acts[j] = a
			r.bytes += tensorBytes(a)
		}
		if every > 1 {
			st := r.stashers[j-1]
			r.hold(st.StashBytes())
			// Discard what checkpointing does not keep.
			r.bytes -= st.StashBytes()
			st.DropStash()
			r.stashValid[j] = false
			if prev := j - 1; prev > 0 && prev%every != 0 {
				r.bytes -= tensorBytes(r.acts[prev])
				r.acts[prev] = nil
			}
		} else {
			r.hold(0)
		}
	}
	r.stats.CheckpointBytes = r.bytes
	loss, lossGrad := e.observedLoss(a, labels)

	// Backward: the exact op order and gradient math of Network.Backward,
	// with segment re-materialization and the checkpointing release rules.
	r.grads[L] = lossGrad
	r.hold(tensorBytes(lossGrad))
	live, peakLive := 1, 1
	for _, op := range sched {
		i := op.Layer
		if every > 1 {
			if err := e.rematerialize(r, n, i, ws); err != nil {
				return 0, RecomputeStats{}, err
			}
		}
		g := r.grads[i]
		if g == nil {
			return 0, RecomputeStats{}, fmt.Errorf("train: schedule op %v ran after its gradient was released", op)
		}
		switch op.Kind {
		case graph.OutGrad:
			gin := e.inputGrad(n.Layers[i-1], i, g, ws)
			r.doneDO[i] = true
			if i > 1 {
				r.grads[i-1] = gin
				r.bytes += tensorBytes(gin)
				live++
				peakLive = max(peakLive, live)
			}
		case graph.WeightGrad:
			e.weightGrad(0, n.Layers[i-1], i, g, ws)
			r.doneDW[i] = true
		}
		r.hold(0)
		if r.doneDO[i] && r.doneDW[i] && r.grads[i] != nil {
			r.bytes -= tensorBytes(r.grads[i])
			r.grads[i] = nil
			live--
			if every > 1 {
				r.bytes -= r.stashers[i-1].StashBytes()
				r.stashers[i-1].DropStash()
				r.stashValid[i] = false
			}
		}
		// Sweep: a_{j-1} is dead once δW_j ran (graph.MemoryProfileRecompute's
		// release rule); re-materialized copies go the same way.
		for j := 1; j <= L; j++ {
			if r.doneDW[j] && r.acts[j-1] != nil {
				r.bytes -= tensorBytes(r.acts[j-1])
				r.acts[j-1] = nil
			}
		}
	}
	r.stats.PeakLiveGrads = peakLive
	r.stats.RecomputeShare = float64(r.stats.RecomputedLayers) / float64(L)

	if obs != nil {
		start = time.Now()
	}
	opt.Step(n.Params())
	if obs != nil {
		end := time.Now()
		obs(OpEvent{Kind: OpUpdate, Start: start, End: end})
		obs(OpEvent{Kind: OpStep, Start: wall, End: end})
	}
	return loss, r.stats, nil
}

// rematerialize rebuilds layer i's stash: re-run the forward segment from the
// nearest resident activation below i. Legal schedules touch layers in
// descending δO order, so the needed source is always still resident.
func (e *Executor) rematerialize(r *recomputeState, n *Network, i int, ws *tensor.Workspace) error {
	if r.stashValid[i] {
		return nil
	}
	c := i - 1
	for c > 0 && r.acts[c] == nil {
		c--
	}
	if r.acts[c] == nil {
		return fmt.Errorf("train: recompute source for layer %d already released", i)
	}
	src := r.acts[c]
	for j := c + 1; j <= i; j++ {
		src = e.forwardLayer(OpRefwd, n.Layers[j-1], j, src, ws)
		r.stashValid[j] = true
		r.bytes += r.stashers[j-1].StashBytes()
		r.stats.RecomputedLayers++
		if j < len(n.Layers) && r.acts[j] == nil {
			r.acts[j] = src
			r.bytes += tensorBytes(src)
		}
		r.hold(0)
	}
	return nil
}
