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

// recomputeRows is the table of a checkpointed step. The forward rows keep
// activation a_j only at checkpoint boundaries (j % every == 0; the batch a_0
// is always resident, the data loader holds it) and, with checkpointing on
// (every > 1), count each layer's stash while its forward runs and then drop
// it. The backward rows are the schedule, each op preceded by the re-forward
// of the segment that rebuilds its layer's stash — from the nearest resident
// activation below it, the first time the layer is touched — and followed by
// what its completion releases: the gradient and stash of a layer that has
// had both its ops, and every activation whose δW has run
// (graph.MemoryProfileRecompute's rules). δO_1 is left out like in every
// table (stepRows): it counts as done from the start, so layer 1's gradient and
// stash go with its δW. What is resident when is a function of (sched, every)
// alone, so the walk happens here, once, and a schedule it cannot serve is an
// error here, not in the middle of a step.
func recomputeRows(L int, sched graph.BackwardSchedule, every int) ([]row, error) {
	ckpt := every > 1
	rows := stepRows(L, nil, 0)
	resident := make([]bool, L+1) // a_j is in the ledger
	stash := make([]bool, L+1)    // layer j's stash is valid
	live := make([]bool, L+1)     // g_j exists and still has a consumer
	doneDO, doneDW := make([]bool, L+1), make([]bool, L+1)
	resident[0], live[L], doneDO[1] = true, true, true
	for j := 1; j <= L; j++ {
		f := &rows[j]
		stash[j] = !ckpt
		if j < L {
			f.flags |= keepAct
			resident[j] = true
		}
		if ckpt {
			f.flags |= holdStash | dropStash
			if p := j - 1; p > 0 && p%every != 0 {
				f.flags |= dropPrev
				resident[p] = false
			}
		}
	}
	for _, op := range sched {
		i := op.Layer
		if op.Kind == graph.OutGrad && i == 1 {
			continue
		}
		if !stash[i] {
			c := i - 1
			for c > 0 && !resident[c] {
				c--
			}
			if !resident[c] {
				return nil, fmt.Errorf("train: recompute source for layer %d already released", i)
			}
			for j := c + 1; j <= i; j++ {
				f := row{kind: rowFwd, flags: reFwd | holdStash, layer: j}
				stash[j] = true
				if j < L && !resident[j] {
					f.flags |= keepAct
					resident[j] = true
				}
				rows = append(rows, f)
			}
		}
		if !live[i] {
			return nil, fmt.Errorf("train: schedule op %v ran after its gradient was released", op)
		}
		r := row{kind: rowDO, layer: i}
		if op.Kind == graph.WeightGrad {
			r.kind = rowDW
			doneDW[i] = true
		} else {
			doneDO[i] = true
			live[i-1] = true
		}
		if doneDO[i] && doneDW[i] {
			r.flags |= lastUse
			live[i] = false
			if ckpt {
				r.flags |= dropStash
				stash[i] = false
			}
		}
		rows = append(rows, r)
		for j := 1; j <= L; j++ {
			if doneDW[j] && resident[j-1] {
				rows = append(rows, row{kind: rowFree, layer: j - 1})
				resident[j-1] = false
			}
		}
	}
	return rows, nil
}

// ledger is the byte ledger of one checkpointed step: a fold over the rows
// lane.run executes. It counts logical lifetimes — a pooled layer keeps its
// output buffer after the ledger released the activation, and a dropped stash
// reads 0 bytes while its layer keeps the capacity for the re-run — so it is
// the same on every executor.
type ledger struct {
	bytes int64
	stats RecomputeStats
}

func tensorBytes(t *tensor.Tensor) int64 { return 8 * int64(t.Len()) }

// apply folds the row lane l has just executed: add what the op left
// resident, record the peak, then release (and actually drop) what the row's
// flags say nothing needs any more.
func (led *ledger) apply(r row, l *lane) {
	stasher := func() nn.Pooled { return l.nets[0].Layers[r.layer-1].(nn.Pooled) }
	switch r.kind {
	case rowFwd:
		if r.flags&keepAct != 0 {
			led.bytes += tensorBytes(l.acts[r.layer])
		}
		if r.flags&holdStash != 0 {
			led.bytes += stasher().StashBytes()
		}
		if r.flags&reFwd != 0 {
			led.stats.RecomputedLayers++
		}
	case rowLoss:
		led.stats.CheckpointBytes = led.bytes
		led.bytes += tensorBytes(l.grads[l.stride-1])
	case rowDO:
		led.bytes += tensorBytes(l.grads[r.layer-1])
	case rowFree:
		led.bytes -= tensorBytes(l.acts[r.layer])
		l.acts[r.layer] = nil
	}
	led.stats.PeakLiveBytes = max(led.stats.PeakLiveBytes, led.bytes)
	if r.flags&lastUse != 0 {
		led.bytes -= tensorBytes(l.grads[r.layer])
		l.grads[r.layer] = nil
	}
	if r.flags&dropStash != 0 {
		st := stasher()
		led.bytes -= st.StashBytes()
		st.DropStash()
	}
	if r.flags&dropPrev != 0 {
		led.bytes -= tensorBytes(l.acts[r.layer-1])
		l.acts[r.layer-1] = nil
	}
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
// identical to train.Step on the same state for every legal schedule: with
// checkpointing on, every layer must be nn.Pooled (its forward is a pure
// function of input and parameters, and it can drop its stash), so a re-run
// rebuilds exactly the state the first run built.
// Only the serial engine supports checkpointing — segment re-runs mutate
// shared layer state, which would race with ExecConcurrent's δW pool.
//
// The step is the recomputeRows table run by the executor's lane like any
// other (events on lane 0, a re-forward as OpRefwd) with the byte ledger
// folded over the rows; a warm step on an executor allocates nothing. A nil
// receiver runs the same table on a fresh lane without a workspace, that is
// through the plain allocating layer methods: the naive ledger reference.
func (e *Executor) StepRecompute(n *Network, x *tensor.Tensor, labels []int,
	sched graph.BackwardSchedule, every int, opt nn.Optimizer) (float64, RecomputeStats, error) {
	if e.Mode() == ExecConcurrent {
		return 0, RecomputeStats{}, fmt.Errorf("train: recompute requires the serial engine, executor is %v", e.Mode())
	}
	every = max(every, 1)
	for i := 0; every > 1 && i < len(n.Layers); i++ {
		if _, ok := n.Layers[i].(nn.Pooled); !ok {
			return 0, RecomputeStats{}, fmt.Errorf(
				"train: layer %d (%s) does not support recompute (not nn.Pooled)", i+1, n.Layers[i].Name())
		}
	}
	if e == nil {
		e = &Executor{}
		e.lane = newLane(0, &e.obs, nil)
	}
	rows, peak, err := e.table(len(n.Layers), sched, every)
	if err != nil {
		return 0, RecomputeStats{}, err
	}
	l := &e.lane
	l.bind(n, x, labels)
	e.led = ledger{stats: RecomputeStats{BackwardStats: BackwardStats{PeakLiveGrads: peak}, Every: every}}
	e.led.bytes = tensorBytes(x)
	l.led = &e.led
	l.step(func() { l.run(rows) }, func() { opt.Step(n.Params()) })
	l.led = nil
	e.led.stats.RecomputeShare = float64(e.led.stats.RecomputedLayers) / float64(len(n.Layers))
	return l.loss(), e.led.stats, nil
}
