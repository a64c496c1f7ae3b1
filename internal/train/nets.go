package train

import (
	"fmt"

	"oooback/internal/data"
	"oooback/internal/nn"
	"oooback/internal/tensor"
)

// Deterministic demo networks shared by the differential tests, the reference
// nets of internal/microbench, the semantics reports, oootrain and the
// benchmark's train workloads. All initialization flows from the seed through
// tensor.RNG, so two builds with equal arguments are bit-identical.

// MLPNet builds a fully connected stack: depth× (Dense→ReLU) blocks of the
// given hidden width, then a Dense head. L = 2·depth + 1 layers.
func MLPNet(seed uint64, dim, hidden, depth, classes int) *Network {
	rng := tensor.NewRNG(seed)
	layers := make([]nn.Layer, 0, 2*depth+1)
	in := dim
	for b := 1; b <= depth; b++ {
		layers = append(layers,
			nn.NewDense(fmt.Sprintf("fc%d", b), in, hidden, rng),
			nn.NewReLU(fmt.Sprintf("relu%d", b)))
		in = hidden
	}
	layers = append(layers, nn.NewDense("head", in, classes, rng))
	return &Network{Layers: layers}
}

// ConvNet builds a small conv net over 1×size×size inputs (size must be even
// and ≥ 8): Conv3×3 → ReLU → Conv3×3 → ReLU → MaxPool → Flatten → Dense.
// L = 7 layers.
func ConvNet(seed uint64, size, filters, classes int) *Network {
	if size < 8 || size%2 != 0 {
		panic(fmt.Sprintf("train: ConvNet size %d must be even and ≥ 8", size))
	}
	rng := tensor.NewRNG(seed)
	pooled := (size - 4) / 2
	return &Network{Layers: []nn.Layer{
		nn.NewConv2D("conv1", filters, 1, 3, 3, rng),         // size → size−2
		nn.NewReLU("relu1"),                                  //
		nn.NewConv2D("conv2", 2*filters, filters, 3, 3, rng), // → size−4
		nn.NewReLU("relu2"),
		nn.NewMaxPool2("pool"), // → (size−4)/2
		nn.NewFlatten("flat"),
		nn.NewDense("fc", 2*filters*pooled*pooled, classes, rng),
	}}
}

// Conv9Net builds the small conv net over 1×9×9 inputs that the semantics
// checks train: Conv 8×1×3×3 → ReLU → Conv 8×8×2×2 → ReLU → MaxPool →
// Flatten → Dense 72→classes. L = 7 layers.
func Conv9Net(seed uint64, classes int) *Network {
	rng := tensor.NewRNG(seed)
	return &Network{Layers: []nn.Layer{
		nn.NewConv2D("conv1", 8, 1, 3, 3, rng), // 9 → 7
		nn.NewReLU("relu1"),
		nn.NewConv2D("conv2", 8, 8, 2, 2, rng), // → 6
		nn.NewReLU("relu2"),
		nn.NewMaxPool2("pool"), // → 3
		nn.NewFlatten("flat"),
		nn.NewDense("fc", 8*3*3, classes, rng),
	}}
}

// TokenNet builds an NLP-shaped stack: embedding → layernorm → mean-pool over
// the sequence → MLP head. L = 6 layers with heterogeneous δW structure
// (scatter-add, reductions, GEMMs).
func TokenNet(seed uint64, vocab, dim, seqLen, hidden, classes int) *Network {
	rng := tensor.NewRNG(seed)
	return &Network{Layers: []nn.Layer{
		nn.NewEmbedding("emb", vocab, dim, rng),
		nn.NewLayerNorm("ln", dim, rng),
		nn.NewMeanPool1D("pool", seqLen),
		nn.NewDense("fc1", dim, hidden, rng),
		nn.NewReLU("relu"),
		nn.NewDense("fc2", hidden, classes, rng),
	}}
}

// TokenBatch flattens deterministic token sequences into the [batch·seq] id
// tensor TokenNet consumes, with labels derived from token statistics so the
// task is learnable.
func TokenBatch(seed uint64, batch, seqLen, vocab, classes int) (*tensor.Tensor, []int) {
	seqs := data.Tokens(seed, batch, seqLen, vocab)
	x := tensor.New(batch * seqLen)
	labels := make([]int, batch)
	for i, s := range seqs {
		sum := 0
		for j, tok := range s {
			x.Data[i*seqLen+j] = float64(tok)
			sum += tok
		}
		labels[i] = sum % classes
	}
	return x, labels
}
