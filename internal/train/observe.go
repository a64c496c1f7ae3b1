package train

import (
	"errors"
	"time"
)

// ErrClosed is returned by a step or backward pass issued to an engine whose
// goroutines Close already stopped.
var ErrClosed = errors.New("train: engine is closed")

// OpKind classifies an OpEvent.
type OpKind uint8

const (
	// OpZero is the start-of-step gradient zeroing.
	OpZero OpKind = iota
	// OpFwd is one layer's forward computation.
	OpFwd
	// OpLoss is the loss + loss-gradient computation.
	OpLoss
	// OpDO is one layer's output-gradient (δO) computation.
	OpDO
	// OpDW is one layer's weight-gradient (δW) computation at its schedule
	// position: the serial walk, the concurrent pool, or a pipeline stage with
	// fill disabled.
	OpDW
	// OpDWFill is a δW a pipeline stage deferred and ran out of order inside a
	// bubble or the drain tail.
	OpDWFill
	// OpUpdate is the optimizer step on the prototype, whose weights every lane
	// of a multi-lane engine reads.
	OpUpdate
	// OpReduce is one data-parallel gradient bucket reduction.
	OpReduce
	// OpIdle is a pipeline stage waiting on a queue with no δW left to fill
	// with — the exposed bubble.
	OpIdle
	// OpStep closes a training step; its span is the step's wall time and
	// encloses every other event of the step.
	OpStep
	// OpRefwd is one layer's forward computation re-run by a checkpointed step
	// (Executor.StepRecompute) to rebuild state its backward pass dropped.
	OpRefwd
	// OpRestash is one layer's stash rebuilt by a checkpointed step from an
	// activation it kept (nn.Layer.Restash): no output is computed.
	OpRestash
)

var opKindNames = [...]string{"zeroGrad", "fwd", "loss", "dO", "dW", "dWFill", "update", "reduce", "idle", "step", "reFwd", "restash"}

func (k OpKind) String() string { return opKindNames[k] }

// OpEvent is one executed operation of a real training step — the single
// record every engine reports at its span points.
type OpEvent struct {
	Kind OpKind
	// Layer is the 1-based layer index; 0 for step-scoped ops, and the
	// bucket's first member layer for OpReduce.
	Layer int
	// Lane is the execution resource the op ran on. Executor: 0 is the calling
	// goroutine (every op of the serial engine; under the concurrent one the δO
	// chain and, after its last δO, the δW ops the caller drains), 1+w is δW
	// pool worker w. Pipeline: stage s is lane s and the goroutine calling Step
	// is lane Stages. DataParallel: replica r is lane r, the reducer is lane
	// Replicas and the goroutine calling Step is lane Replicas+1. Spans on one
	// lane never overlap, OpStep aside.
	Lane int
	// Micro is the 1-based microbatch of a pipeline op; 0 elsewhere.
	Micro int
	// Start and End bracket the op on the monotonic clock.
	Start, End time.Time
	// Elems is the op's size: input + output elements for OpFwd, logits for
	// OpLoss, the bucket's gradient elements for OpReduce; 0 otherwise.
	Elems int
}

// Observer receives every OpEvent of the engine it is attached to (Observe on
// Executor, Pipeline and DataParallel; nil detaches). Each engine holds one
// observer and calls it synchronously on the goroutine that ran the op —
// pool workers, pipeline stages, replicas and the reducer included — so an
// observer must be safe for concurrent use and should return quickly. With no
// observer attached an engine takes no timestamps beyond those its stats
// already need. Attach and detach between steps, never during one.
type Observer func(OpEvent)
