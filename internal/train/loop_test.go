package train

import (
	"testing"

	"oooback/internal/core"
	"oooback/internal/data"
	"oooback/internal/graph"
	"oooback/internal/nn"
	"oooback/internal/tensor"
)

func TestBatchesCoverEveryExampleOnce(t *testing.T) {
	x, labels := data.Vectors(3, 17, 4, 3) // 17 examples, batch 5 → 5,5,5,2
	bs := Batches(x, labels, 5, 9)
	var total int
	seen := map[float64]int{}
	for _, b := range bs {
		total += len(b.Labels)
		for i := 0; i < b.X.Shape[0]; i++ {
			seen[b.X.At(i, 0)]++
		}
	}
	if total != 17 || len(bs) != 4 || len(bs[3].Labels) != 2 {
		t.Fatalf("batches = %d, total = %d, last = %d", len(bs), total, len(bs[3].Labels))
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("example with x0=%v appears %d times", v, c)
		}
	}
}

func TestBatchesDeterministicShuffle(t *testing.T) {
	x, labels := data.Vectors(3, 12, 4, 3)
	a := Batches(x, labels, 4, 7)
	b := Batches(x, labels, 4, 7)
	c := Batches(x, labels, 4, 8)
	for i := range a {
		if a[i].Labels[0] != b[i].Labels[0] {
			t.Fatal("same seed shuffled differently")
		}
	}
	same := true
	for i := range a {
		for j := range a[i].Labels {
			if a[i].Labels[j] != c[i].Labels[j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical shuffles")
	}
}

func TestFitConvergesAndPreservesSemantics(t *testing.T) {
	x, labels := data.Vectors(41, 48, 8, 3)
	run := func(s graph.BackwardSchedule) []float64 {
		net := mlp(77, 8, 3)
		opt := &nn.Momentum{LR: 0.05, Beta: 0.9}
		losses, err := fit(func(b Batch) (float64, error) {
			return Step(net, b.X, b.Labels, s, opt)
		}, x, labels, fitConfig{Epochs: 6, BatchSize: 16, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return losses
	}
	conv := run(graph.Conventional(5))
	ooo := run(core.FastForward(5))
	for i := range conv {
		if conv[i] != ooo[i] {
			t.Fatalf("epoch %d loss diverged: %v vs %v", i, conv[i], ooo[i])
		}
	}
	if conv[len(conv)-1] >= conv[0] {
		t.Fatalf("fit did not converge: %v", conv)
	}
}

// TestFitEpochLossWeightedByBatchSize pins the corrected epoch-loss
// definition: the mean over EXAMPLES, i.e. each batch's mean weighted by its
// size. The old unweighted mean over batches over-weighted the final short
// batch (17 examples at batch 5 gave the 2-example batch 2.5× its share).
func TestFitEpochLossWeightedByBatchSize(t *testing.T) {
	x, labels := data.Vectors(3, 17, 8, 3) // batch 5 → sizes 5,5,5,2
	net := mlp(7, 8, 3)
	// SGD with LR 0: weights never move, so the epoch loss must equal the
	// batch losses recomputed on the same frozen weights.
	losses, err := fit(func(b Batch) (float64, error) {
		return Step(net, b.X, b.Labels, graph.Conventional(len(net.Layers)), &nn.SGD{LR: 0})
	}, x, labels, fitConfig{Epochs: 1, BatchSize: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, b := range Batches(x, labels, 5, 9) {
		logits := net.Forward(b.X)
		l, _ := nn.SoftmaxCrossEntropy(logits, b.Labels)
		want += l * float64(len(b.Labels))
	}
	want /= float64(len(labels))
	if losses[0] != want {
		t.Fatalf("epoch loss %v, want example-weighted mean %v", losses[0], want)
	}
}

// TestBatchesFreshStorage: every batch owns its tensor and labels, so a
// caller writing into one batch changes neither the dataset, nor another
// batch, nor what a later Batches call returns.
func TestBatchesFreshStorage(t *testing.T) {
	x, labels := data.Vectors(3, 17, 4, 3)
	xWant := x.Clone()
	labelsWant := append([]int(nil), labels...)
	bs := Batches(x, labels, 5, 1)
	again := Batches(x, labels, 5, 1)
	snapshot := func(bs []Batch) []Batch {
		out := make([]Batch, len(bs))
		for i, b := range bs {
			out[i] = Batch{X: b.X.Clone(), Labels: append([]int(nil), b.Labels...)}
		}
		return out
	}
	same := func(a, b Batch) bool {
		if !tensor.Equal(a.X, b.X) || len(a.Labels) != len(b.Labels) {
			return false
		}
		for i := range a.Labels {
			if a.Labels[i] != b.Labels[i] {
				return false
			}
		}
		return true
	}
	clobber := func(b Batch) {
		for i := range b.X.Data {
			b.X.Data[i] = -1
		}
		for i := range b.Labels {
			b.Labels[i] = -1
		}
	}
	bsWant, againWant := snapshot(bs), snapshot(again)
	clobber(bs[0])
	for bi := 1; bi < len(bs); bi++ {
		if !same(bs[bi], bsWant[bi]) {
			t.Fatalf("writing into batch 0 changed batch %d of the same call", bi)
		}
	}
	for _, b := range bs[1:] {
		clobber(b)
	}
	if !tensor.Equal(x, xWant) {
		t.Fatal("writing into a batch changed the dataset's inputs")
	}
	for i := range labels {
		if labels[i] != labelsWant[i] {
			t.Fatal("writing into a batch changed the dataset's labels")
		}
	}
	for bi := range again {
		if !same(again[bi], againWant[bi]) {
			t.Fatalf("writing into one call's batches changed batch %d of another call", bi)
		}
	}
}

// TestBatchesTokenInput: flattened token datasets ([n·seqLen] inputs, one
// label per sequence) batch by label count, keeping whole sequences together.
func TestBatchesTokenInput(t *testing.T) {
	const seqLen = 6
	x, labels := TokenBatch(7, 10, seqLen, 40, 3)
	bs := Batches(x, labels, 4, 11)
	if len(bs) != 3 {
		t.Fatalf("%d batches, want 3", len(bs))
	}
	total := 0
	for _, b := range bs {
		if b.X.Shape[0] != len(b.Labels)*seqLen {
			t.Fatalf("batch rows %d for %d labels (seqLen %d)", b.X.Shape[0], len(b.Labels), seqLen)
		}
		total += len(b.Labels)
	}
	if total != 10 {
		t.Fatalf("batches cover %d examples, want 10", total)
	}
}

// TestFitDataParallel: driving the data-parallel engine through fit trains
// (losses fall) and the final short batch takes the single-replica fallback
// without error.
func TestFitDataParallel(t *testing.T) {
	x, labels := data.Vectors(41, 26, 8, 3) // batch 8 → 8,8,8,2: final batch < 3 replicas
	build := func() *Network { return mlp(77, 8, 3) }
	net := build()
	dp, err := NewDataParallel(net, &nn.Momentum{LR: 0.05, Beta: 0.9}, DataParallelConfig{
		Replicas: 3, Build: build, Schedule: graph.ReverseFirstK(len(net.Layers), 2), Sync: SyncLayerPriority,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	losses, err := fit(func(b Batch) (float64, error) {
		loss, _, err := dp.Step(b.X, b.Labels)
		return loss, err
	}, x, labels, fitConfig{Epochs: 4, BatchSize: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("data-parallel fit did not converge: %v", losses)
	}
}

// TestBatchesRejectsMisalignedDataset: an empty label set, a leading
// dimension the label count does not divide, or a non-positive batch size is
// a programmer error Batches panics on.
func TestBatchesRejectsMisalignedDataset(t *testing.T) {
	x, labels := data.Vectors(1, 8, 8, 3)
	for _, c := range []struct {
		labels    []int
		batchSize int
	}{{nil, 4}, {labels[:3], 4}, {labels, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d labels for %d rows at batch %d accepted", len(c.labels), x.Shape[0], c.batchSize)
				}
			}()
			Batches(x, c.labels, c.batchSize, 1)
		}()
	}
}

// fitConfig drives fit.
type fitConfig struct {
	// Epochs over the dataset (≥ 1).
	Epochs int
	// BatchSize per step (≤ 0 = the whole dataset).
	BatchSize int
	// Seed shuffles batches per epoch deterministically.
	Seed uint64
}

// fit drives step — one training step of whatever engine the test built:
// Step, Executor.Step, DataParallel.Step or Pipeline.Step behind a closure —
// over the dataset, epoch by epoch in deterministically shuffled batches, and
// returns the mean loss of each epoch: each batch's mean loss weighted by its
// size, so the final short batch does not skew the epoch mean. Every engine's
// step lands on the same bits, so two fit calls with equal inputs produce
// identical trajectories regardless of the backward schedule or engine.
func fit(step func(Batch) (float64, error), x *tensor.Tensor, labels []int, cfg fitConfig) ([]float64, error) {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = len(labels)
	}
	var epochLosses []float64
	for e := 0; e < max(cfg.Epochs, 1); e++ {
		var sum float64
		for _, b := range Batches(x, labels, cfg.BatchSize, cfg.Seed+uint64(e)) {
			loss, err := step(b)
			if err != nil {
				return nil, err
			}
			sum += loss * float64(len(b.Labels))
		}
		epochLosses = append(epochLosses, sum/float64(len(labels)))
	}
	return epochLosses, nil
}
