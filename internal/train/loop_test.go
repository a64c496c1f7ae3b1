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
		opt := &nn.Momentum{Beta: 0.9}
		losses, err := Fit(func(b Batch) (float64, error) {
			return Step(net, b.X, b.Labels, s, opt)
		}, x, labels, FitConfig{
			Epochs: 6, BatchSize: 16,
			LR:    nn.WarmupLR(nn.CosineLR(0.08, 0.01, 18), 3),
			SetLR: func(lr float64) { opt.LR = lr },
			Seed:  5,
		})
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
		t.Fatalf("Fit did not converge: %v", conv)
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
	losses, err := Fit(func(b Batch) (float64, error) {
		return Step(net, b.X, b.Labels, graph.Conventional(len(net.Layers)), &nn.SGD{LR: 0})
	}, x, labels, FitConfig{Epochs: 1, BatchSize: 5, Seed: 9})
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

// TestBatchBufferReusesStorage: the second epoch's batching pass allocates
// nothing — tensors and label slices are rewritten in place — and produces
// exactly the contents a fresh Batches call would.
func TestBatchBufferReusesStorage(t *testing.T) {
	x, labels := data.Vectors(3, 17, 4, 3)
	var bb BatchBuffer
	bb.Batches(x, labels, 5, 1) // first epoch sizes the buffers
	for epoch := uint64(2); epoch < 5; epoch++ {
		var got []Batch
		allocs := testing.AllocsPerRun(1, func() {
			got = bb.Batches(x, labels, 5, epoch)
		})
		if allocs != 0 {
			t.Fatalf("warm epoch batching allocates %v, want 0", allocs)
		}
		want := Batches(x, labels, 5, epoch)
		if len(got) != len(want) {
			t.Fatalf("%d batches, want %d", len(got), len(want))
		}
		for i := range want {
			if !tensor.Equal(got[i].X, want[i].X) {
				t.Fatalf("epoch %d batch %d tensor differs from fresh batching", epoch, i)
			}
			for j := range want[i].Labels {
				if got[i].Labels[j] != want[i].Labels[j] {
					t.Fatalf("epoch %d batch %d labels differ", epoch, i)
				}
			}
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

// TestFitDataParallel: driving the data-parallel engine through Fit trains
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
	losses, err := Fit(func(b Batch) (float64, error) {
		loss, _, err := dp.Step(b.X, b.Labels)
		return loss, err
	}, x, labels, FitConfig{Epochs: 4, BatchSize: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("data-parallel Fit did not converge: %v", losses)
	}
}

func TestFitRejectsLRWithoutSetter(t *testing.T) {
	x, labels := data.Vectors(1, 8, 8, 3)
	net := mlp(1, 8, 3)
	step := func(b Batch) (float64, error) {
		return Step(net, b.X, b.Labels, graph.Conventional(len(net.Layers)), &nn.SGD{LR: 0.1})
	}
	_, err := Fit(step, x, labels, FitConfig{Epochs: 1, BatchSize: 4, LR: nn.ConstantLR(0.1)})
	if err == nil {
		t.Fatal("LR schedule without SetLR accepted")
	}
	// An empty or misaligned dataset is an error, not BatchBuffer's panic.
	for _, bad := range [][]int{nil, labels[:3]} {
		if _, err := Fit(step, x, bad, FitConfig{BatchSize: 4}); err == nil {
			t.Fatalf("%d labels for %d rows accepted", len(bad), x.Shape[0])
		}
	}
}
