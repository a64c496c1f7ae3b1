package train

import (
	"fmt"

	"oooback/internal/tensor"
)

// Batch is one mini-batch of examples.
type Batch struct {
	X      *tensor.Tensor
	Labels []int
}

// Batches splits a dataset into mini-batches of the given size, in
// deterministic order with a deterministic shuffle derived from seed.
// Examples are counted by labels (n = len(labels)); x's leading dimension
// must be a multiple of n, covering both row-per-example inputs ([n, ...])
// and flattened token inputs ([n·seqLen]). The final short batch is kept.
func Batches(x *tensor.Tensor, labels []int, batchSize int, seed uint64) []Batch {
	n := len(labels)
	if n == 0 || x.Shape[0]%n != 0 {
		panic(fmt.Sprintf("train: leading dim %d not a multiple of %d labels", x.Shape[0], n))
	}
	if batchSize <= 0 {
		panic("train: non-positive batch size")
	}
	rowsPer := x.Shape[0] / n
	per := x.Len() / n
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	rng := tensor.NewRNG(seed)
	for i := n - 1; i > 0; i-- {
		j := int(rng.Uint64() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	batches := make([]Batch, (n+batchSize-1)/batchSize)
	for bi := range batches {
		lo := bi * batchSize
		hi := min(lo+batchSize, n)
		b := &batches[bi]
		b.X = tensor.New(append([]int{(hi - lo) * rowsPer}, x.Shape[1:]...)...)
		b.Labels = make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			src := perm[i]
			copy(b.X.Data[(i-lo)*per:(i-lo+1)*per], x.Data[src*per:(src+1)*per])
			b.Labels = append(b.Labels, labels[src])
		}
	}
	return batches
}
