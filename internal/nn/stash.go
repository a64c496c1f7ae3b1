package nn

import (
	"fmt"

	"oooback/internal/tensor"
)

// This file holds the stash half of Pooled: DropStash and StashBytes. A
// Pooled layer's forward pass is a pure function of (input, parameters), so
// re-running it on the original input rebuilds bit-identical backward state,
// and the state retained between forward and backward can be dropped to free
// memory — what activation checkpointing (train.StepRecompute) does.

// stashTensorBytes sums the byte footprint of owned stash tensors
// (8 bytes per element, nils skipped).
func stashTensorBytes(ts ...*tensor.Tensor) int64 {
	var n int64
	for _, t := range ts {
		if t != nil {
			n += 8 * int64(t.Len())
		}
	}
	return n
}

// A dropped stash reads as empty and keeps its capacity. The ledger of
// train.StepRecompute counts logical lifetimes — StashBytes is 0 from the drop
// until the next forward — while the backing arrays stay with the layer, so
// the forward pass that rebuilds the stash (ForwardWS sizes every buffer with
// tensor.Ensure or a capacity test) allocates nothing. Slices are truncated,
// tensors parked; either way every stash check below sees a length that
// matches no gradient and answers a backward call before a re-forward with
// the "stash dropped" diagnostic.

// park empties a stash tensor in place: zero elements, backing array kept.
func park(t *tensor.Tensor) {
	if t != nil {
		t.Shape = append(t.Shape[:0], 0)
		t.Data = t.Data[:0]
	}
}

// stashedBatch is the leading dimension of a stash tensor: 0 once dropped, or
// before any forward pass.
func stashedBatch(t *tensor.Tensor) int {
	if t == nil {
		return 0
	}
	return t.Shape[0]
}

// checkStash rejects a backward call whose stash — have units of it — does not
// belong to a gradient of want units: dropped by DropStash and not rebuilt by
// a forward pass, or left over from a forward pass of another shape.
func checkStash(layer, what, unit string, have, want int) {
	if have != want {
		panic(fmt.Sprintf("nn: %s %s has %d %s for %d gradient %s (stash dropped, or stale from another shape?)",
			layer, what, have, unit, want, unit))
	}
}

// Dense stashes only the borrowed input reference.
func (d *Dense) DropStash()        { d.x = nil }
func (d *Dense) StashBytes() int64 { return 0 }

// ReLU owns its elementwise keep mask.
func (r *ReLU) DropStash()        { r.mask = r.mask[:0] }
func (r *ReLU) StashBytes() int64 { return int64(len(r.mask)) }

// Conv2D owns the lowering the pooled δW replays; the input is borrowed.
func (l *Conv2D) DropStash() {
	l.x = nil
	park(l.colsT)
}
func (l *Conv2D) StashBytes() int64 { return stashTensorBytes(l.colsT) }

// MaxPool2 owns the argmax index plan.
func (l *MaxPool2) DropStash()        { l.arg = l.arg[:0] }
func (l *MaxPool2) StashBytes() int64 { return 8 * int64(len(l.arg)) }

// Flatten retains only the input shape.
func (l *Flatten) DropStash()        {}
func (l *Flatten) StashBytes() int64 { return 0 }

// Embedding owns the decoded token-id list.
func (e *Embedding) DropStash()        { e.ids = e.ids[:0] }
func (e *Embedding) StashBytes() int64 { return 8 * int64(len(e.ids)) }

// LayerNorm owns the normalized rows and per-row inverse deviations.
func (l *LayerNorm) DropStash() {
	park(l.xhat)
	l.invStd = l.invStd[:0]
}
func (l *LayerNorm) StashBytes() int64 {
	return stashTensorBytes(l.xhat) + 8*int64(len(l.invStd))
}

// MeanPool1D retains only the input row count.
func (p *MeanPool1D) DropStash()        { p.rows = 0 }
func (p *MeanPool1D) StashBytes() int64 { return 0 }
