package models

import (
	"fmt"
	"math"
	"time"
)

// FFNN builds the simple feed-forward network of §8.4.1: nLayers
// fully-connected layers of the given width.
func FFNN(p GPUProfile, nLayers, width, batch int) *Model {
	m := &Model{Name: fmt.Sprintf("ffnn%d-w%d-b%d", nLayers, width, batch), Batch: batch, Profile: p}
	for i := 0; i < nLayers; i++ {
		m.Layers = append(m.Layers, buildDenseLayer(p, denseSpec{
			name: fmt.Sprintf("fc%d", i+1), block: fmt.Sprintf("fc%d", i+1),
			in: width, out: width, batch: batch, kernels: 2}))
	}
	mustValidate(m)
	return m
}

// RNN builds the 16-cell recurrent model of Table 1 (IWSLT). Each cell is one
// layer whose cost covers the per-timestep GEMMs unrolled over the sequence.
// Following §8.4.1, roughly half of a cell's work is state-independent (it
// can proceed before the previous cell finishes); the pipeline engine uses
// Layer.Block to group cells for modulo allocation.
func RNN(p GPUProfile, cells, hidden, seqLen, batch int) *Model {
	m := &Model{Name: fmt.Sprintf("rnn%d-h%d-s%d-b%d", cells, hidden, seqLen, batch),
		Batch: batch, SeqLen: seqLen, Profile: p}
	for i := 0; i < cells; i++ {
		l := buildDenseLayer(p, denseSpec{
			name: fmt.Sprintf("cell%d", i+1), block: fmt.Sprintf("cell%d", i+1),
			in: 2 * hidden, out: 4 * hidden, batch: batch * seqLen, kernels: 3})
		// Recurrent cells launch one GEMM per timestep; kernel counts (and
		// issue overheads) scale with the sequence length, and each kernel
		// only covers one timestep's rows — so per-kernel occupancy is the
		// per-timestep GEMM, not the unrolled aggregate.
		l.FwdKernels = seqLen
		l.DOKernels = seqLen
		l.DWKernels = seqLen / 2
		if l.DWKernels < 1 {
			l.DWKernels = 1
		}
		stepBlocks := batch * 4 * hidden / 4096
		if stepBlocks < 1 {
			stepBlocks = 1
		}
		l.FwdBlocks, l.DOBlocks, l.DWBlocks = stepBlocks, stepBlocks, stepBlocks
		// The cell's inter-layer tensor is the hidden state (h per token),
		// not the 4h internal gate activations the GEMM produces.
		l.OutBytes = int64(batch) * int64(seqLen) * int64(hidden) * 4
		l.ActBytes = 2 * l.OutBytes
		m.Layers = append(m.Layers, l)
	}
	mustValidate(m)
	return m
}

// transformerSpec sizes one encoder/decoder layer.
type transformerSpec struct {
	name   string
	hidden int
	seq    int
	batch  int
	// causal marks decoder-style attention (same cost at this granularity).
	causal bool
}

// buildTransformer synthesizes a single transformer layer (attention + FFN)
// as one schedulable Layer — the granularity at which the paper applies
// modulo allocation to NLP models (§5.2.1: "we applied modulo allocation at a
// transformer level").
func buildTransformer(p GPUProfile, t transformerSpec, block string) Layer {
	h := float64(t.hidden)
	s := float64(t.seq)
	b := float64(t.batch)
	// QKV + output projections: 8·B·S·H²; FFN (4H inner): 16·B·S·H²;
	// attention scores and context: 4·B·S²·H.
	gemmFlops := 24 * b * s * h * h
	attnFlops := 4 * b * s * s * h
	flops := gemmFlops + attnFlops
	rows := b * s
	blocks := int(math.Ceil(rows * h / 4096))
	if blocks < 1 {
		blocks = 1
	}
	dwBlocks := int(math.Ceil(12 * h * h / 8192)) // all weight-grad GEMMs
	if dwBlocks < 1 {
		dwBlocks = 1
	}
	elemBytes := int64(4)
	params := int64(12*t.hidden*t.hidden) * elemBytes
	act := int64(rows) * int64(t.hidden) * elemBytes
	fwd := p.KernelTime(flops, blocks)
	return Layer{
		Name:       t.name,
		Block:      block,
		Fwd:        fwd,
		DO:         p.KernelTime(flops, blocks),
		DW:         p.KernelTime(gemmFlops, dwBlocks),
		FwdKernels: 12,
		DOKernels:  14,
		DWKernels:  6,
		FwdBlocks:  blocks,
		DOBlocks:   blocks,
		DWBlocks:   dwBlocks,
		ParamBytes: params,
		ActBytes:   act,
		OutBytes:   act,
		WorkBytes:  act,
	}
}

// BERT builds BERT with the given number of encoders (12, 24 or 48 in the
// paper), sequence length and batch. Hidden sizes follow the released
// configurations: 768 for BERT-12 (base), 1024 for BERT-24 (large), and 1280
// for BERT-48 (the paper's weak-scaling giant). Vocabulary is 30,522 (§8.4.2).
func BERT(p GPUProfile, encoders, seqLen, batch int) *Model {
	hidden := map[int]int{12: 768, 24: 1024, 48: 1280}[encoders]
	if hidden == 0 {
		hidden = 1024
	}
	return transformerModel(p, fmt.Sprintf("bert%d", encoders), encoders, hidden, 30522, seqLen, batch, false)
}

// GPT3Medium builds GPT-3 Medium: 24 decoders, hidden 1024, vocabulary
// 50,257, sequence length 512 for pre-training (§8.4.2).
func GPT3Medium(p GPUProfile, seqLen, batch int) *Model {
	return transformerModel(p, "gpt3-medium", 24, 1024, 50257, seqLen, batch, true)
}

// VocabParallelHead returns a copy of m with the output projection
// ("lm_head") sharded across n GPUs in the vocabulary dimension — the
// Megatron-style tensor parallelism the paper adopts for GPT-3's oversized
// embedding/head (§8.4.2: "we separately assign four GPUs to the layer,
// which is split in the output neuron dimension"). Costs and bytes of the
// head shrink by n; other layers are untouched.
func VocabParallelHead(m *Model, n int) *Model {
	if n <= 1 {
		return m
	}
	out := &Model{Name: fmt.Sprintf("%s-vp%d", m.Name, n), Batch: m.Batch,
		SeqLen: m.SeqLen, Profile: m.Profile}
	out.Layers = append([]Layer(nil), m.Layers...)
	for i := range out.Layers {
		if out.Layers[i].Name != "lm_head" {
			continue
		}
		l := &out.Layers[i]
		d := time.Duration(n)
		l.Fwd /= d
		l.DO /= d
		l.DW /= d
		l.ParamBytes /= int64(n)
		l.OutBytes /= int64(n)
		l.WorkBytes /= int64(n)
		l.FwdBlocks = max(1, l.FwdBlocks/n)
		l.DOBlocks = max(1, l.DOBlocks/n)
		l.DWBlocks = max(1, l.DWBlocks/n)
	}
	mustValidate(out)
	return out
}

func transformerModel(p GPUProfile, name string, nLayers, hidden, vocab, seqLen, batch int, causal bool) *Model {
	m := &Model{Name: fmt.Sprintf("%s-s%d-b%d", name, seqLen, batch), Batch: batch, SeqLen: seqLen, Profile: p}
	// Embedding lookup layer: parameters vocab×H, negligible FLOPs but a
	// large synchronization message; §8.4.2 assigns GPT-3's embedding its own
	// GPUs because of this.
	embedParams := int64(vocab) * int64(hidden) * 4
	actBytes := int64(batch) * int64(seqLen) * int64(hidden) * 4
	m.Layers = append(m.Layers, Layer{
		Name: "embedding", Block: "Embed",
		Fwd: 20 * time.Microsecond, DO: 20 * time.Microsecond,
		DW:         p.KernelTime(float64(batch*seqLen*hidden), 64),
		FwdKernels: 2, DOKernels: 2, DWKernels: 1,
		FwdBlocks: 64, DOBlocks: 64, DWBlocks: 64,
		ParamBytes: embedParams, ActBytes: actBytes, OutBytes: actBytes,
	})
	for i := 0; i < nLayers; i++ {
		block := fmt.Sprintf("transformer-%d", i+1)
		m.Layers = append(m.Layers, buildTransformer(p, transformerSpec{
			name: block, hidden: hidden, seq: seqLen, batch: batch, causal: causal}, block))
	}
	// Output head: logits GEMM B·S×H×V — heavy for big vocabularies.
	m.Layers = append(m.Layers, buildDenseLayer(p, denseSpec{
		name: "lm_head", block: "Head", in: hidden, out: vocab, batch: batch * seqLen, kernels: 2}))
	mustValidate(m)
	return m
}
