package nn

import (
	"fmt"
	"math"

	"oooback/internal/tensor"
)

// This file holds the stash half of the pooled Layer form: DropStash,
// StashBytes, StashSource and Restash. A layer's forward pass is a pure function of
// (input, parameters), so the state retained between forward and backward can
// be dropped to free memory and rebuilt bit-identically later — what
// activation checkpointing (train.StepRecompute) does. Every stash is a plain
// function of one activation the layer's last forward read or wrote (or of
// nothing but shapes), so Restash rebuilds it from that tensor without
// computing the output: no GEMM, no output buffer. Re-running the forward is
// only needed when that tensor is gone too.

// StashSource is the tensor a layer's Restash reads. It is fixed per layer
// type, so a checkpointed step plans its restash rows before it runs.
type StashSource uint8

const (
	// StashFromNothing: the stash is shapes and counts that DropStash keeps
	// aside; Restash takes nil.
	StashFromNothing StashSource = iota
	// StashFromInput: Restash takes the input of the layer's last forward.
	StashFromInput
	// StashFromOutput: Restash takes the output of the layer's last forward.
	StashFromOutput
)

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
// until the next forward or Restash — while the backing arrays stay with the
// layer, so what rebuilds the stash (ForwardWS and Restash size every buffer
// with tensor.Ensure or resize) allocates nothing. Slices are truncated,
// tensors parked; either way every stash check below sees a length that
// matches no gradient and answers a backward call before a rebuild with the
// "stash dropped" diagnostic.

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
// a forward pass or Restash, or left over from a forward pass of another shape.
func checkStash(layer, what, unit string, have, want int) {
	if have != want {
		panic(fmt.Sprintf("nn: %s %s has %d %s for %d gradient %s (stash dropped, or stale from another shape?)",
			layer, what, have, unit, want, unit))
	}
}

// Dense stashes only the borrowed input reference.
func (d *Dense) DropStash()               { d.x = nil }
func (d *Dense) StashBytes() int64        { return 0 }
func (d *Dense) StashSource() StashSource { return StashFromInput }
func (d *Dense) Restash(x *tensor.Tensor) { d.x = x }

// ReLU owns its elementwise keep mask. The output is x where x > 0 and +0
// elsewhere (ReLUInto), so out > 0 exactly where x > 0: the mask is rebuilt
// from the output, which the next layer keeps resident anyway.
func (r *ReLU) DropStash()               { r.mask = r.mask[:0] }
func (r *ReLU) StashBytes() int64        { return int64(len(r.mask)) }
func (r *ReLU) StashSource() StashSource { return StashFromOutput }
func (r *ReLU) Restash(out *tensor.Tensor) {
	r.mask = tensor.ReLUMaskInto(resize(r.mask, len(out.Data)), out)
}

// Conv2D owns the lowering the pooled δW replays; the input is borrowed.
// Restash lowers the input again without the GEMM.
func (l *Conv2D) DropStash() {
	l.x = nil
	park(l.colsT)
}
func (l *Conv2D) StashBytes() int64        { return stashTensorBytes(l.colsT) }
func (l *Conv2D) StashSource() StashSource { return StashFromInput }
func (l *Conv2D) Restash(x *tensor.Tensor) {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	l.x = x
	l.colsT = tensor.Ensure(l.colsT, n, x.Shape[1]*l.kh*l.kw, (h-l.kh+1)*(w-l.kw+1))
	tensor.ConvLowerInto(l.colsT, x, l.kh, l.kw)
}

// MaxPool2 owns the argmax index plan; Restash repeats the scan without
// writing the pooled output.
func (l *MaxPool2) DropStash()               { l.arg = l.arg[:0] }
func (l *MaxPool2) StashBytes() int64        { return 8 * int64(len(l.arg)) }
func (l *MaxPool2) StashSource() StashSource { return StashFromInput }
func (l *MaxPool2) Restash(x *tensor.Tensor) {
	l.inShape = append(l.inShape[:0], x.Shape...)
	l.arg = resize(l.arg, x.Len()/4)
	tensor.MaxPool2ArgInto(l.arg, x)
}

// Flatten retains only the input shape, which it never drops.
func (l *Flatten) DropStash()               {}
func (l *Flatten) StashBytes() int64        { return 0 }
func (l *Flatten) StashSource() StashSource { return StashFromNothing }
func (l *Flatten) Restash(*tensor.Tensor)   {}

// Embedding owns the decoded token-id list.
func (e *Embedding) DropStash()               { e.ids = e.ids[:0] }
func (e *Embedding) StashBytes() int64        { return 8 * int64(len(e.ids)) }
func (e *Embedding) StashSource() StashSource { return StashFromInput }
func (e *Embedding) Restash(x *tensor.Tensor) {
	e.inSh = append(e.inSh[:0], x.Shape...)
	e.ids = resize(e.ids, x.Len())
	vocab := e.W.Value.Shape[0]
	for i, v := range x.Data {
		id := int(v)
		if id < 0 || id >= vocab {
			panic(fmt.Sprintf("nn: token id %d out of vocab %d", id, vocab))
		}
		e.ids[i] = id
	}
}

// LayerNorm owns the normalized rows and per-row inverse deviations; Restash
// normalizes the input again without the affine output.
func (l *LayerNorm) DropStash() {
	park(l.xhat)
	l.invStd = l.invStd[:0]
}
func (l *LayerNorm) StashBytes() int64 {
	return stashTensorBytes(l.xhat) + 8*int64(len(l.invStd))
}
func (l *LayerNorm) StashSource() StashSource { return StashFromInput }
func (l *LayerNorm) Restash(x *tensor.Tensor) {
	if x.Dims() != 2 {
		panic("nn: LayerNorm expects [rows, dim]")
	}
	l.rows, l.width = x.Shape[0], x.Shape[1]
	l.xhat = tensor.Ensure(l.xhat, l.rows, l.width)
	l.invStd = resize(l.invStd, l.rows)
	for r := 0; r < l.rows; r++ {
		row := x.Data[r*l.width : (r+1)*l.width]
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean /= float64(l.width)
		var varSum float64
		for _, v := range row {
			d := v - mean
			varSum += d * d
		}
		inv := 1 / math.Sqrt(varSum/float64(l.width)+l.eps)
		l.invStd[r] = inv
		for c, v := range row {
			l.xhat.Data[r*l.width+c] = (v - mean) * inv
		}
	}
}

// MeanPool1D retains only the input row count; DropStash zeroes it and keeps
// the forward's count aside for Restash.
func (p *MeanPool1D) DropStash()               { p.rows = 0 }
func (p *MeanPool1D) StashBytes() int64        { return 0 }
func (p *MeanPool1D) StashSource() StashSource { return StashFromNothing }
func (p *MeanPool1D) Restash(*tensor.Tensor)   { p.rows = p.fwdRows }

// resize returns s with length n, reusing its backing array when it is large
// enough; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
