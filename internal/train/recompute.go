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
	// re-materialize an activation it dropped.
	RecomputedLayers int
	// RecomputeShare is RecomputedLayers / L.
	RecomputeShare float64
	// RestashedLayers counts stashes the backward pass rebuilt from a resident
	// activation (nn.Layer.Restash) instead of re-running a forward.
	RestashedLayers int
}

// recomputeRows is the table of a checkpointed step over layers whose stashes
// rebuild from srcs[i-1] (nn.Layer.StashSource; only read when every > 1).
// The forward rows keep activation a_j only at checkpoint boundaries (j %
// every == 0; the batch a_0 is always resident, the data loader holds it) and,
// with checkpointing on (every > 1), count each layer's stash while its
// forward runs and then drop it. The backward rows are the schedule, each op
// preceded, the first time its layer is touched, by what rebuilds the layer's
// stash: a restash row when its source activation is resident, else the
// re-forward of the segment from the nearest resident activation up to that
// source (a layer whose source is its own output re-runs itself), then the
// restash. Each op is followed by what its completion releases: the gradient
// and stash of a layer that has had both its ops, and every activation whose
// δW has run (graph.MemoryProfileRecompute's rules) — after restashing the
// layer whose stash that activation, as its output, would rebuild, if the
// layer still needs one. The logits a_L are never in the ledger, so they are
// never a source. δO_1 is left out like in every table (stepRows): it counts
// as done from the start, so layer 1's gradient and stash go with its δW.
// What is resident when is a function of (srcs, sched, every) alone, so the
// walk happens here, once, and a schedule it cannot serve is an error here,
// not in the middle of a step.
func recomputeRows(L int, srcs []nn.StashSource, sched graph.BackwardSchedule, every int) ([]row, error) {
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
	restash := func(i int) {
		rows = append(rows, row{kind: rowRestash, layer: i})
		stash[i] = true
	}
	// rebuild makes layer i's stash valid before its op.
	rebuild := func(i int) error {
		if stash[i] {
			return nil
		}
		src := i - 1 // the activation the restash reads
		switch srcs[i-1] {
		case nn.StashFromNothing:
			restash(i)
			return nil
		case nn.StashFromOutput:
			src = i
		}
		if src < L && resident[src] {
			restash(i)
			return nil
		}
		c := src - 1
		for c >= 0 && !resident[c] {
			c--
		}
		if c < 0 {
			return fmt.Errorf("train: recompute source for layer %d already released", i)
		}
		for j := c + 1; j <= src; j++ {
			f := row{kind: rowFwd, flags: reFwd, layer: j}
			if !stash[j] {
				f.flags |= holdStash
				stash[j] = true
			}
			if j < L && !resident[j] {
				f.flags |= keepAct
				resident[j] = true
			}
			rows = append(rows, f)
		}
		if !stash[i] {
			restash(i)
		}
		return nil
	}
	for _, op := range sched {
		i := op.Layer
		if op.Kind == graph.OutGrad && i == 1 {
			continue
		}
		if err := rebuild(i); err != nil {
			return nil, err
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
			if !doneDW[j] || !resident[j-1] {
				continue
			}
			if k := j - 1; k > 0 && !stash[k] && srcs[k-1] == nn.StashFromOutput && !(doneDO[k] && doneDW[k]) {
				restash(k)
			}
			rows = append(rows, row{kind: rowFree, layer: j - 1})
			resident[j-1] = false
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
	layer := func() nn.Layer { return l.nets[0].Layers[r.layer-1] }
	switch r.kind {
	case rowFwd:
		if r.flags&keepAct != 0 {
			led.bytes += tensorBytes(l.acts[r.layer])
		}
		if r.flags&holdStash != 0 {
			led.bytes += layer().StashBytes()
		}
		if r.flags&reFwd != 0 {
			led.stats.RecomputedLayers++
		}
	case rowRestash:
		led.bytes += layer().StashBytes()
		led.stats.RestashedLayers++
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
		st := layer()
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
// every `every`-th activation and drops every layer's stash; the first time
// a layer's backward needs its stash, the backward pass rebuilds it from the
// activation it is a function of (nn.Layer.Restash), re-running the segment
// from the nearest surviving checkpoint only when that activation is gone too.
// every ≤ 1 disables checkpointing (full retention, no recompute) but still
// reports the byte ledger, making it the comparison baseline.
//
// Parameter gradients, loss and the post-step parameters are bitwise
// identical to train.Step on the same state for every legal schedule: every
// layer's forward is a pure function of input and parameters, it can drop its
// stash, and Restash rebuilds the stash its forward built, so a restash or a
// re-run rebuilds exactly the state the first run built.
// Only the serial engine supports checkpointing — rebuilding a stash mutates
// shared layer state, which would race with ExecConcurrent's δW pool.
//
// The step is the recomputeRows table run by the executor's lane like any
// other (events on lane 0, a re-forward as OpRefwd, a restash as OpRestash)
// with the byte ledger folded over the rows; a warm step allocates nothing.
func (e *Executor) StepRecompute(n *Network, x *tensor.Tensor, labels []int,
	sched graph.BackwardSchedule, every int, opt nn.Optimizer) (float64, RecomputeStats, error) {
	if e.mode == ExecConcurrent {
		return 0, RecomputeStats{}, fmt.Errorf("train: recompute requires the serial engine, executor is %v", e.mode)
	}
	every = max(every, 1)
	e.srcs = e.srcs[:0]
	if every > 1 {
		for _, l := range n.Layers {
			e.srcs = append(e.srcs, l.StashSource())
		}
	}
	rows, peak, err := e.table(len(n.Layers), e.srcs, sched, every)
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
