package nn

import (
	"math"
	"testing"

	"oooback/internal/tensor"
)

func TestEmbeddingForwardLooksUpRows(t *testing.T) {
	rng := tensor.NewRNG(1)
	e := NewEmbedding("emb", 10, 4, rng)
	x := tensor.FromSlice([]float64{3, 7}, 2)
	out := e.Forward(x)
	if out.Shape[0] != 2 || out.Shape[1] != 4 {
		t.Fatalf("shape = %v", out.Shape)
	}
	for c := 0; c < 4; c++ {
		if out.At(0, c) != e.W.Value.At(3, c) {
			t.Fatal("row 3 lookup wrong")
		}
		if out.At(1, c) != e.W.Value.At(7, c) {
			t.Fatal("row 7 lookup wrong")
		}
	}
}

func TestEmbeddingWeightGradScatters(t *testing.T) {
	rng := tensor.NewRNG(2)
	e := NewEmbedding("emb", 10, 3, rng)
	x := tensor.FromSlice([]float64{5, 5, 2}, 3) // id 5 twice
	e.Forward(x)
	g := tensor.New(3, 3)
	for i := range g.Data {
		g.Data[i] = 1
	}
	e.W.ZeroGrad()
	e.WeightGrad(g)
	if e.W.Grad.At(5, 0) != 2 {
		t.Fatalf("repeated id grad = %v, want 2", e.W.Grad.At(5, 0))
	}
	if e.W.Grad.At(2, 0) != 1 {
		t.Fatalf("single id grad = %v, want 1", e.W.Grad.At(2, 0))
	}
	if e.W.Grad.At(0, 0) != 0 {
		t.Fatal("unused row received gradient")
	}
}

func TestEmbeddingOutOfVocabPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	rng := tensor.NewRNG(3)
	e := NewEmbedding("emb", 4, 2, rng)
	e.Forward(tensor.FromSlice([]float64{9}, 1))
}

func TestLayerNormForwardNormalizes(t *testing.T) {
	rng := tensor.NewRNG(4)
	l := NewLayerNorm("ln", 8, rng)
	x := tensor.Randn(rng, 3, 4, 8)
	out := l.Forward(x)
	for r := 0; r < 4; r++ {
		var mean, sq float64
		for c := 0; c < 8; c++ {
			mean += out.At(r, c)
		}
		mean /= 8
		for c := 0; c < 8; c++ {
			d := out.At(r, c) - mean
			sq += d * d
		}
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("row %d mean = %v (gain=1 bias=0 should normalize)", r, mean)
		}
		if math.Abs(sq/8-1) > 1e-3 {
			t.Fatalf("row %d var = %v", r, sq/8)
		}
	}
}

func TestLayerNormGradientsNumerically(t *testing.T) {
	rng := tensor.NewRNG(5)
	l := NewLayerNorm("ln", 5, rng)
	// Non-trivial gain/bias so the parameter paths are exercised.
	for i := range l.Gain.Value.Data {
		l.Gain.Value.Data[i] = 1 + 0.1*float64(i)
		l.Bias.Value.Data[i] = 0.05 * float64(i)
	}
	x := tensor.Randn(rng, 1, 3, 5)
	// Loss = Σ out² /2 so dL/dout = out.
	loss := func() float64 {
		out := l.Forward(x)
		var s float64
		for _, v := range out.Data {
			s += v * v / 2
		}
		return s
	}
	out := l.Forward(x)
	gradOut := out.Clone()
	gin := l.InputGrad(gradOut)
	l.Gain.ZeroGrad()
	l.Bias.ZeroGrad()
	l.WeightGrad(gradOut)
	for _, i := range []int{0, 7, 14} {
		num := numericalGrad(loss, x.Data, i)
		if math.Abs(num-gin.Data[i]) > 1e-5 {
			t.Fatalf("ln input grad[%d] = %v, numeric %v", i, gin.Data[i], num)
		}
	}
	for i := 0; i < 5; i++ {
		num := numericalGrad(loss, l.Gain.Value.Data, i)
		if math.Abs(num-l.Gain.Grad.Data[i]) > 1e-5 {
			t.Fatalf("gain grad[%d] = %v, numeric %v", i, l.Gain.Grad.Data[i], num)
		}
		num = numericalGrad(loss, l.Bias.Value.Data, i)
		if math.Abs(num-l.Bias.Grad.Data[i]) > 1e-5 {
			t.Fatalf("bias grad[%d] = %v, numeric %v", i, l.Bias.Grad.Data[i], num)
		}
	}
}

func TestMeanPool1D(t *testing.T) {
	p := NewMeanPool1D("pool", 2)
	x := tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 4, 2)
	out := p.Forward(x)
	if out.Shape[0] != 2 || out.At(0, 0) != 2 || out.At(0, 1) != 3 {
		t.Fatalf("pool = %v %v", out.Shape, out.Data)
	}
	g := tensor.FromSlice([]float64{1, 1, 1, 1}, 2, 2)
	back := p.InputGrad(g)
	if back.At(0, 0) != 0.5 || back.At(3, 1) != 0.5 {
		t.Fatalf("pool grad = %v", back.Data)
	}
}

func TestMeanPool1DUnevenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewMeanPool1D("pool", 3).Forward(tensor.New(4, 2))
}
