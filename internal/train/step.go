package train

import (
	"fmt"
	"time"

	"oooback/internal/graph"
	"oooback/internal/nn"
	"oooback/internal/tensor"
)

// This file is the one place a training step is executed. The paper's claim
// (§3) is that out-of-order backprop only reorders one fixed op set; here that
// set is a table of rows per lane, every schedule — conventional, reverse
// first-k, fast-forward, recompute, GPipe, 1F1B, bucket publishing — is a
// generator that builds a table, and lane.run is the only function that walks
// one. Engines differ in which tables they generate and which goroutines run
// them, never in how an op is run, timed or reported.

// rowKind is what one row of a step table does.
type rowKind uint8

const (
	rowZero     rowKind = iota // clear the parameter gradients of the lane's network
	rowFwd                     // forward of layer: a_{layer-1} → a_layer
	rowRestash                 // checkpointed step: rebuild layer's stash from its source (nn.Layer.Restash)
	rowLoss                    // loss head: a_L → g_L, folded into the lane's loss sum
	rowDO                      // δO of layer: g_layer → g_{layer-1}
	rowDW                      // δW of layer from g_layer, handed off as the flags say
	rowFree                    // checkpointed step: a_layer leaves the ledger
	rowPublish                 // data-parallel: bucket `layer` is complete on this replica
	rowRecvAct                 // pipeline: a_layer of the microbatch from the stage below
	rowSendAct                 // pipeline: a_layer of the microbatch to the stage above
	rowRecvGrad                // pipeline: g_layer of the microbatch from the stage above
	rowSendGrad                // pipeline: g_layer of the microbatch to the stage below
)

// rowFlags qualify a row. A δW row with no hand-off flag runs inline.
type rowFlags uint16

const (
	dwPooled   rowFlags = 1 << iota // δW goes to the executor's task channel
	dwDeferred                      // δW goes to the lane's FIFO, run inside a bubble or the tail
	reFwd                           // forward re-run by a checkpointed step (reported as OpRefwd)
	keepAct                         // ledger: the row's output activation stays resident
	holdStash                       // ledger: the layer's stash is resident from this row on
	dropStash                       // after the row, the layer's stash is dropped
	dropPrev                        // after the row, the input activation a_{layer-1} is dropped
	lastUse                         // after the row, g_layer has had both consumers and is dropped
)

// row is one entry of a step table. layer is 1-based (a bucket index on a
// publish row, 0 on zero and loss rows); micro is the 1-based microbatch of a
// pipeline row and 0 everywhere else — exactly OpEvent's Layer and Micro.
type row struct {
	kind  rowKind
	flags rowFlags
	layer int
	micro int
}

// stepRows is the table of a whole-batch step on one lane: zero, forward
// 1..L, loss, then the backward schedule with every δW in hand-off mode dw.
// The serial and concurrent executors and every data-parallel replica run it.
// No table computes δO_1: the gradient into the batch feeds nothing (the
// reference walk, Network.Backward, computes and discards it), so leaving it
// out cannot change any bit.
func stepRows(L int, sched graph.BackwardSchedule, dw rowFlags) []row {
	rows := make([]row, 0, 2+L+len(sched))
	rows = append(rows, row{kind: rowZero})
	for j := 1; j <= L; j++ {
		rows = append(rows, row{kind: rowFwd, layer: j})
	}
	rows = append(rows, row{kind: rowLoss})
	for _, op := range sched {
		switch {
		case op.Kind == graph.WeightGrad:
			rows = append(rows, row{kind: rowDW, flags: dw, layer: op.Layer})
		case op.Layer > 1:
			rows = append(rows, row{kind: rowDO, layer: op.Layer})
		}
	}
	return rows
}

// backwardRows is the backward part of an L-layer stepRows table.
func backwardRows(rows []row, L int) []row { return rows[L+2:] }

// zeroRows is the table of a lane that only clears the gradients: a pipeline
// step's caller, whose stages run everything else.
var zeroRows = []row{{kind: rowZero}}

// publishRows copies a replica's table with a publish row right after the last
// member δW of every bucket, in schedule order. A bucket's publish point is a
// property of the table alone — every replica runs its δW ops inline, in table
// order — so the reducer's input needs no run-time countdown.
func publishRows(rows []row, plan *reducePlan) []row {
	left := make([]int, len(plan.buckets))
	for b := range left {
		left[b] = len(plan.buckets[b].layers)
	}
	out := make([]row, 0, len(rows)+len(left))
	for _, r := range rows {
		out = append(out, r)
		if r.kind != rowDW {
			continue
		}
		if b := plan.layerBucket[r.layer]; b >= 0 {
			if left[b]--; left[b] == 0 {
				out = append(out, row{kind: rowPublish, layer: b})
			}
		}
	}
	return out
}

// stageRows is stage s's table of one pipeline step over layers (lo, hi]:
// GPipe forwards all M microbatches and then backwards them; 1F1B warms up
// with min(M, S−1−s) forwards, alternates, and drains. A forward is receive,
// the stage's layers, send; a backward is receive (the loss head on the last
// stage), then per layer top-down δW — deferred when fill is on, inline
// otherwise — and δO, then send. Backwards always appear in ascending
// microbatch order: the δW fold (nn.Layer.WeightGradAcc) continues chunk by
// chunk, and its contract depends on it. Stage 0 omits δO_1, like every table
// (stepRows).
func stageRows(sched PipeSchedule, s, S, M, lo, hi int, fill bool) []row {
	var dw rowFlags
	if fill {
		dw = dwDeferred
	}
	var rows []row
	fwd := func(m int) {
		if s > 0 {
			rows = append(rows, row{kind: rowRecvAct, layer: lo, micro: m})
		}
		for j := lo + 1; j <= hi; j++ {
			rows = append(rows, row{kind: rowFwd, layer: j, micro: m})
		}
		if s < S-1 {
			rows = append(rows, row{kind: rowSendAct, layer: hi, micro: m})
		}
	}
	bwd := func(m int) {
		if s == S-1 {
			rows = append(rows, row{kind: rowLoss, micro: m})
		} else {
			rows = append(rows, row{kind: rowRecvGrad, layer: hi, micro: m})
		}
		for j := hi; j > lo; j-- {
			rows = append(rows, row{kind: rowDW, flags: dw, layer: j, micro: m})
			if j > 1 {
				rows = append(rows, row{kind: rowDO, layer: j, micro: m})
			}
		}
		if s > 0 {
			rows = append(rows, row{kind: rowSendGrad, layer: lo, micro: m})
		}
	}
	ahead := M // forwards before the first backward: GPipe runs all of them
	if sched == Pipe1F1B {
		ahead = min(M, S-1-s)
	}
	for m := 1; m <= ahead; m++ {
		fwd(m)
	}
	for b := 1; b <= M; b++ {
		if f := ahead + b; f <= M {
			fwd(f)
		}
		bwd(b)
	}
	return rows
}

// dwTask is one δW handed off by a row: to the executor's pool or to the
// lane's own FIFO.
type dwTask struct {
	r     row
	layer nn.Layer
	grad  *tensor.Tensor
}

// lane is the execution context of one goroutine of an engine — the caller
// of an Executor, a pool worker, a pipeline stage, a data-parallel replica,
// the reducer — and the only place an op is timed and reported. Its timeline
// has no gaps: an op's span starts where the lane's previous one ended (mark
// starts a fresh one after a wait that is not the lane's own), so busy[] adds
// up to the time the lane was running, and the engines' stats structs are
// views of busy[] and clock.
type lane struct {
	id    int       // OpEvent.Lane
	obs   *Observer // the engine's observer slot, read at every span point
	timed bool      // keep busy[] and clock even when nobody observes
	ws    *tensor.Workspace

	// nets[m] is the network microbatch m runs on; index 0 is the whole batch.
	// x and labels are the step's inputs under the same indexing.
	nets   []*Network
	x      []*tensor.Tensor
	labels [][]int

	// acts and grads hold a_j and g_j of microbatch m at m·stride + j.
	stride      int
	acts, grads []*tensor.Tensor
	lossGrad    []*tensor.Tensor // retained per microbatch
	lossSum     float64          // Σ per-example losses of the run's loss rows
	total       int              // examples of the run: what lossSum and g_L are divided by

	clock time.Time
	busy  [len(opKindNames)]time.Duration

	pool   *Executor // pooled δW: the executor whose task channel takes them
	dwq    []dwTask  // deferred δW, FIFO from dwHead
	dwHead int

	actIn, gradIn, actOut, gradOut chan pipeMsg // pipeline queues, nil at the ends
	poll                           poller
	pub                            chan<- pubMsg // data-parallel publish channel
	led                            *ledger       // checkpointed step: the byte ledger
}

// newLane is a lane that runs whole-batch tables (bind gives it each step's
// network and inputs).
func newLane(id int, obs *Observer) lane {
	return lane{id: id, obs: obs, ws: tensor.NewWorkspace(),
		nets: make([]*Network, 1), x: make([]*tensor.Tensor, 1), labels: make([][]int, 1)}
}

// size makes room for the slots of the lane's networks.
func (l *lane) size() {
	l.stride = len(l.nets[0].Layers) + 1
	if n := len(l.nets) * l.stride; len(l.acts) != n {
		l.acts, l.grads = make([]*tensor.Tensor, n), make([]*tensor.Tensor, n)
	}
	if len(l.lossGrad) != len(l.nets) {
		l.lossGrad = make([]*tensor.Tensor, len(l.nets))
	}
}

// bind points a whole-batch lane at one step's network and inputs.
func (l *lane) bind(n *Network, x *tensor.Tensor, labels []int) {
	l.nets[0], l.x[0], l.labels[0] = n, x, labels
	l.size()
}

// loss is the mean loss of the lane's last run.
func (l *lane) loss() float64 { return l.lossSum / float64(l.total) }

// mark starts the lane's next span now instead of at the end of its last one.
func (l *lane) mark() {
	if l.timed || *l.obs != nil {
		l.clock = time.Now()
	}
}

// span closes the op the lane has just run: one timestamp, and only when the
// lane is observed or keeps stats.
func (l *lane) span(kind OpKind, r row, elems int) {
	obs := *l.obs
	if obs == nil && !l.timed {
		return
	}
	end := time.Now()
	if obs != nil {
		obs(OpEvent{Kind: kind, Layer: r.layer, Lane: l.id, Micro: r.micro, Start: l.clock, End: end, Elems: elems})
	}
	l.busy[kind] += end.Sub(l.clock)
	l.clock = end
}

// step is the envelope of every engine's training step, on the lane of the
// goroutine that called it: body runs the step's tables (gradient zeroing is
// a row), update applies the optimizer, and the update and the whole step are
// reported.
func (l *lane) step(body, update func()) {
	l.mark()
	wall := l.clock
	body()
	l.mark()
	update()
	l.span(OpUpdate, row{}, 0)
	if obs := *l.obs; obs != nil {
		obs(OpEvent{Kind: OpStep, Lane: l.id, Start: wall, End: l.clock})
	}
}

// run executes a table. Layers run their pooled methods on the lane's
// workspace; a δW row runs inline, goes to the pool, or joins the lane's FIFO;
// a receive row that would block runs deferred δW instead. When the table is
// done the lane works off its FIFO, then helps the pool drain its queue
// rather than park while it is worked off — being woken costs more than most
// of these ops — and only then waits for what a worker is still running.
func (l *lane) run(rows []row) {
	L := l.stride - 1
	l.lossSum, l.total = 0, 0
	for _, lb := range l.labels {
		l.total += len(lb)
	}
	for m, x := range l.x {
		l.acts[m*l.stride] = x
	}
	l.dwq, l.dwHead = l.dwq[:0], 0
	l.busy = [len(l.busy)]time.Duration{}
	l.mark()
	for _, r := range rows {
		at := r.micro*l.stride + r.layer
		switch r.kind {
		case rowZero:
			l.nets[0].ZeroGrads()
			l.span(OpZero, r, 0)
		case rowFwd:
			in := l.acts[at-1]
			out := l.nets[r.micro].Layers[r.layer-1].ForwardWS(in, l.ws)
			l.acts[at] = out
			kind := OpFwd
			if r.flags&reFwd != 0 {
				kind = OpRefwd
			}
			l.span(kind, r, in.Len()+out.Len())
		case rowRestash:
			layer := l.nets[r.micro].Layers[r.layer-1]
			switch layer.StashSource() {
			case nn.StashFromInput:
				layer.Restash(l.acts[at-1])
			case nn.StashFromOutput:
				layer.Restash(l.acts[at])
			default:
				layer.Restash(nil)
			}
			l.span(OpRestash, r, 0)
		case rowLoss:
			logits := l.acts[at+L]
			g := tensor.Ensure(l.lossGrad[r.micro], logits.Shape[0], logits.Shape[1])
			l.lossGrad[r.micro], l.grads[at+L] = g, g
			l.lossSum = nn.SoftmaxCrossEntropyChunk(g, logits, l.labels[r.micro], l.total, l.lossSum)
			l.span(OpLoss, r, logits.Len())
		case rowDO:
			l.grads[at-1] = l.nets[r.micro].Layers[r.layer-1].InputGradWS(l.grads[at], l.ws)
			l.span(OpDO, r, 0)
		case rowDW:
			t := dwTask{r: r, layer: l.nets[r.micro].Layers[r.layer-1], grad: l.grads[at]}
			switch {
			case r.flags&dwPooled != 0:
				l.pool.dwWG.Add(1)
				l.pool.tasks <- t
			case r.flags&dwDeferred != 0:
				l.dwq = append(l.dwq, t)
			default:
				l.weightGrad(t, OpDW)
			}
		case rowPublish:
			l.pub <- pubMsg{bucket: r.layer, replica: l.id}
		case rowRecvAct:
			l.acts[at] = l.recv(l.actIn, r)
		case rowSendAct:
			l.actOut <- pipeMsg{mb: r.micro, t: l.acts[at]}
		case rowRecvGrad:
			l.grads[at] = l.recv(l.gradIn, r)
		case rowSendGrad:
			l.gradOut <- pipeMsg{mb: r.micro, t: l.grads[at]}
		}
		if l.led != nil {
			l.led.apply(r, l)
		}
	}
	for l.runDeferred() {
	}
	if l.pool != nil {
		l.pool.drainDW(l)
		l.pool.dwWG.Wait()
	}
}

// weightGrad runs one δW — at its row, from the pool's queue, or out of the
// lane's FIFO — and reports it as kind. The fold takes no workspace (a conv
// layer's re-lowering uses the layer's own), so a pool worker, which owns
// none, runs it like any lane.
func (l *lane) weightGrad(t dwTask, kind OpKind) {
	t.layer.WeightGradAcc(t.grad)
	l.span(kind, t.r, 0)
}

// runDeferred pops and runs the oldest deferred δW. The FIFO preserves the
// per-layer ascending-microbatch accumulation order the tables emit.
func (l *lane) runDeferred() bool {
	if l.dwHead == len(l.dwq) {
		return false
	}
	t := l.dwq[l.dwHead]
	l.dwq[l.dwHead] = dwTask{}
	l.dwHead++
	l.weightGrad(t, OpDWFill)
	return true
}

// recv returns the message row r waits for. While the queue is empty it
// fills the wait with deferred δW ops; only when none remain does it wait —
// polling briefly (recvHot: the neighbour stage is mid-op, and its send beats
// a wake-up) before it blocks — and that wait is the exposed bubble.
func (l *lane) recv(ch chan pipeMsg, r row) *tensor.Tensor {
	for {
		var msg pipeMsg
		select {
		case msg = <-ch:
		default:
			if l.runDeferred() {
				continue
			}
			msg, _ = recvHot(ch, &l.poll)
			l.span(OpIdle, row{micro: r.micro}, 0)
		}
		if msg.mb != r.micro {
			panic(fmt.Sprintf("train: stage %d expected microbatch %d, got %d", l.id, r.micro, msg.mb))
		}
		return msg.t
	}
}
