package train

import (
	"fmt"

	"oooback/internal/nn"
	"oooback/internal/tensor"
)

// Batch is one mini-batch of examples.
type Batch struct {
	X      *tensor.Tensor
	Labels []int
}

// BatchBuffer owns the reusable storage of a batching pass. Calling its
// Batches method epoch after epoch rewrites the same batch tensors and label
// slices in place, so a steady-state training loop performs no per-epoch
// batch allocations. The returned batches alias the buffer: they are valid
// until the next Batches call.
type BatchBuffer struct {
	perm    []int
	shape   []int
	batches []Batch
}

// Batches splits a dataset into mini-batches of the given size, in
// deterministic order with a deterministic per-epoch shuffle derived from
// seed. Examples are counted by labels (n = len(labels)); x's leading
// dimension must be a multiple of n, covering both row-per-example inputs
// ([n, ...]) and flattened token inputs ([n·seqLen]). The final short batch
// is kept.
func (bb *BatchBuffer) Batches(x *tensor.Tensor, labels []int, batchSize int, seed uint64) []Batch {
	n := len(labels)
	if n == 0 || x.Shape[0]%n != 0 {
		panic(fmt.Sprintf("train: leading dim %d not a multiple of %d labels", x.Shape[0], n))
	}
	if batchSize <= 0 {
		panic("train: non-positive batch size")
	}
	rowsPer := x.Shape[0] / n
	per := x.Len() / n
	if cap(bb.perm) < n {
		bb.perm = make([]int, n)
	}
	bb.perm = bb.perm[:n]
	for i := range bb.perm {
		bb.perm[i] = i
	}
	rng := tensor.NewRNG(seed)
	for i := n - 1; i > 0; i-- {
		j := int(rng.Uint64() % uint64(i+1))
		bb.perm[i], bb.perm[j] = bb.perm[j], bb.perm[i]
	}
	nb := (n + batchSize - 1) / batchSize
	if cap(bb.batches) < nb {
		grown := make([]Batch, nb)
		copy(grown, bb.batches)
		bb.batches = grown
	}
	bb.batches = bb.batches[:nb]
	for bi := 0; bi < nb; bi++ {
		lo := bi * batchSize
		hi := lo + batchSize
		if hi > n {
			hi = n
		}
		b := &bb.batches[bi]
		bb.shape = append(bb.shape[:0], (hi-lo)*rowsPer)
		bb.shape = append(bb.shape, x.Shape[1:]...)
		b.X = tensor.Ensure(b.X, bb.shape...)
		b.Labels = b.Labels[:0]
		for i := lo; i < hi; i++ {
			src := bb.perm[i]
			copy(b.X.Data[(i-lo)*per:(i-lo+1)*per], x.Data[src*per:(src+1)*per])
			b.Labels = append(b.Labels, labels[src])
		}
	}
	return bb.batches
}

// Batches is the one-shot form of BatchBuffer.Batches: it allocates a fresh
// buffer per call, so the returned batches are independent tensors.
func Batches(x *tensor.Tensor, labels []int, batchSize int, seed uint64) []Batch {
	var bb BatchBuffer
	return bb.Batches(x, labels, batchSize, seed)
}

// FitConfig drives Fit.
type FitConfig struct {
	// Epochs over the dataset (≥ 1).
	Epochs int
	// BatchSize per step (≤ 0 = the whole dataset).
	BatchSize int
	// LR, if non-nil, sets the optimizer's rate each step via SetLR.
	LR nn.LRSchedule
	// SetLR applies the scheduled rate to the optimizer (required with LR).
	SetLR func(float64)
	// Seed shuffles batches per epoch deterministically.
	Seed uint64
}

// Fit drives step — one training step of whatever engine the caller built:
// Executor.Step, DataParallel.Step or Pipeline.Step behind a closure — over
// the dataset, epoch by epoch in deterministically shuffled batches, and
// returns the mean loss of each epoch: each batch's mean loss weighted by its
// size, so the final short batch does not skew the epoch mean. Everything is
// deterministic, and every engine's step lands on the same bits, so two Fit
// calls with equal inputs produce identical trajectories regardless of the
// backward schedule or engine behind step.
func Fit(step func(Batch) (float64, error), x *tensor.Tensor, labels []int, cfg FitConfig) ([]float64, error) {
	if len(labels) == 0 || x.Shape[0]%len(labels) != 0 {
		return nil, fmt.Errorf("train: %d labels for a leading dim of %d (want a positive count dividing it)", len(labels), x.Shape[0])
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = len(labels)
	}
	if cfg.LR != nil && cfg.SetLR == nil {
		return nil, fmt.Errorf("train: LR schedule given without SetLR")
	}
	var epochLosses []float64
	var bb BatchBuffer
	steps := 0
	for e := 0; e < max(cfg.Epochs, 1); e++ {
		var sum float64
		for _, b := range bb.Batches(x, labels, cfg.BatchSize, cfg.Seed+uint64(e)) {
			if cfg.LR != nil {
				cfg.SetLR(cfg.LR(steps))
			}
			loss, err := step(b)
			if err != nil {
				return nil, err
			}
			sum += loss * float64(len(b.Labels))
			steps++
		}
		epochLosses = append(epochLosses, sum/float64(len(labels)))
	}
	return epochLosses, nil
}
