// Package models provides per-layer cost models for the twelve neural
// networks evaluated in the paper (Table 1): DenseNet-121/169, MobileNet V3
// Large, ResNet-50/101/152, an RNN, an FFNN, BERT-12/24/48 and GPT-3 Medium.
//
// A model is a sequence of layers; each layer carries the execution time,
// kernel count and thread-block footprint of its forward (F), output-gradient
// (δO) and weight-gradient (δW) computations, plus parameter/activation byte
// sizes. Times are synthesized from layer FLOPs through an
// occupancy-dependent efficiency curve (see cost.go): low-thread-block
// kernels run far below peak, which reproduces the paper's observation that
// late DenseNet blocks and narrow MobileNets are dominated by many small
// kernels (§2, Fig 1–2).
//
// The absolute numbers are synthetic; the *relative* structure (which layers
// are small, where the δW kernels underfill the SMs, how costs scale with
// batch size, width multiplier and depth) follows the real architectures.
package models

import (
	"fmt"
	"time"
)

// Layer is one schedulable layer of a network.
type Layer struct {
	// Name identifies the layer ("db3_conv7", "encoder11_ffn", ...).
	Name string
	// Block groups layers into scheduling regions (§4.1 uses DenseBlocks);
	// e.g. "DenseBlock-3" or "transformer-7".
	Block string

	// Execution times of the three computations at the model's batch size.
	Fwd, DO, DW time.Duration
	// Kernel counts per computation (each kernel pays issue + setup costs).
	FwdKernels, DOKernels, DWKernels int
	// Thread blocks per kernel for each computation (SM occupancy).
	FwdBlocks, DOBlocks, DWBlocks int

	// ParamBytes is the size of the layer's weights (and of its gradient
	// synchronization message in data-parallel training).
	ParamBytes int64
	// ActBytes is the stored input activation required by δW.
	ActBytes int64
	// OutBytes is the output activation size (= output gradient size); this
	// is the inter-GPU message size in pipeline-parallel training.
	OutBytes int64
	// WorkBytes is the temporary workspace of the δW computation.
	WorkBytes int64
}

// BackwardTime returns DO + DW.
func (l Layer) BackwardTime() time.Duration { return l.DO + l.DW }

// Model is an ordered stack of layers with the training batch size baked into
// the layer costs.
type Model struct {
	Name  string
	Batch int
	// SeqLen is the sequence length for NLP models (0 for CNNs).
	SeqLen int
	// Profile is the GPU cost profile the layer times were synthesized for;
	// engines use it to re-derive efficiency at other granularities (e.g.
	// micro-batches).
	Profile GPUProfile
	Layers  []Layer
}

// NumLayers returns the layer count.
func (m *Model) NumLayers() int { return len(m.Layers) }

// TotalParamBytes sums parameter bytes over all layers.
func (m *Model) TotalParamBytes() int64 {
	var n int64
	for _, l := range m.Layers {
		n += l.ParamBytes
	}
	return n
}

// TotalFwd returns the sum of forward times.
func (m *Model) TotalFwd() time.Duration {
	var d time.Duration
	for _, l := range m.Layers {
		d += l.Fwd
	}
	return d
}

// TotalBackward returns the sum of δO and δW times.
func (m *Model) TotalBackward() time.Duration {
	var d time.Duration
	for _, l := range m.Layers {
		d += l.BackwardTime()
	}
	return d
}

// IterTime returns the pure-compute time of one training iteration
// (forward + backward, no overheads).
func (m *Model) IterTime() time.Duration { return m.TotalFwd() + m.TotalBackward() }

// Blocks returns the distinct Block names in layer order.
func (m *Model) Blocks() []string {
	seen := make(map[string]bool)
	var out []string
	for _, l := range m.Layers {
		if !seen[l.Block] {
			seen[l.Block] = true
			out = append(out, l.Block)
		}
	}
	return out
}

// maxLayerBytes bounds every byte size of a layer: with up to 4096 layers
// no sum of a model's sizes — a trace's live bytes, an arena doubled past
// them — can overflow an int64.
const maxLayerBytes = 1 << 40

// Validate checks internal consistency; builders call it before returning.
func (m *Model) Validate() error {
	if len(m.Layers) == 0 {
		return fmt.Errorf("model %q has no layers", m.Name)
	}
	for i, l := range m.Layers {
		if l.Fwd <= 0 || l.DO < 0 || l.DW < 0 {
			return fmt.Errorf("model %q layer %d (%s): non-positive times F=%v dO=%v dW=%v",
				m.Name, i, l.Name, l.Fwd, l.DO, l.DW)
		}
		for _, b := range [...]int64{l.ParamBytes, l.ActBytes, l.OutBytes, l.WorkBytes} {
			if b < 0 || b > maxLayerBytes {
				return fmt.Errorf("model %q layer %d (%s): byte sizes param=%d act=%d out=%d work=%d outside [0, 2^40]",
					m.Name, i, l.Name, l.ParamBytes, l.ActBytes, l.OutBytes, l.WorkBytes)
			}
		}
		if l.FwdKernels <= 0 || l.DOKernels <= 0 || l.DWKernels <= 0 {
			return fmt.Errorf("model %q layer %d (%s): non-positive kernel counts", m.Name, i, l.Name)
		}
	}
	return nil
}
