package autograd

import (
	"math"
	"testing"
	"testing/quick"

	"oooback/internal/data"
	"oooback/internal/tensor"
)

// buildMLP wires x → fc1 → relu → fc2 on a fresh tape and returns the logits
// variable. Parameters are re-registered from the given persistent tensors.
func buildMLP(t *Tape, x *tensor.Tensor, w1, b1, w2 *tensor.Tensor) *Variable {
	xin := t.Input(x)
	v1 := t.Param("w1", w1)
	vb := t.Param("b1", b1)
	v2 := t.Param("w2", w2)
	h := ReLU(AddBias(MatMul(xin, v1), vb))
	return MatMul(h, v2)
}

func TestBackwardNumericMLP(t *testing.T) {
	rng := tensor.NewRNG(1)
	x := tensor.Randn(rng, 1, 4, 6)
	w1 := tensor.Randn(rng, 0.5, 6, 5)
	b1 := tensor.Randn(rng, 0.5, 1, 5)
	w2 := tensor.Randn(rng, 0.5, 5, 3)
	labels := []int{0, 2, 1, 0}

	lossAt := func() float64 {
		tp := NewTape()
		logits := buildMLP(tp, x, w1, b1, w2)
		l, _ := SoftmaxCE(logits, labels)
		return l
	}

	tp := NewTape()
	logits := buildMLP(tp, x, w1, b1, w2)
	_, seed := SoftmaxCE(logits, labels)
	if err := tp.Backward(logits, seed, Conventional); err != nil {
		t.Fatal(err)
	}
	grads := map[string]*tensor.Tensor{}
	for _, p := range tp.Params() {
		grads[p.Name] = p.Grad
	}
	const eps = 1e-6
	check := func(name string, param *tensor.Tensor, idxs []int) {
		for _, i := range idxs {
			orig := param.Data[i]
			param.Data[i] = orig + eps
			up := lossAt()
			param.Data[i] = orig - eps
			down := lossAt()
			param.Data[i] = orig
			num := (up - down) / (2 * eps)
			if math.Abs(num-grads[name].Data[i]) > 1e-5 {
				t.Fatalf("%s grad[%d] = %v, numeric %v", name, i, grads[name].Data[i], num)
			}
		}
	}
	check("w1", w1, []int{0, 13, 29})
	check("b1", b1, []int{0, 4})
	check("w2", w2, []int{0, 7, 14})
}

func TestPoliciesBitIdentical(t *testing.T) {
	rng := tensor.NewRNG(7)
	x := tensor.Randn(rng, 1, 8, 6)
	w1 := tensor.Randn(rng, 0.5, 6, 10)
	b1 := tensor.Randn(rng, 0.5, 1, 10)
	w2 := tensor.Randn(rng, 0.5, 10, 4)
	labels := []int{0, 1, 2, 3, 0, 1, 2, 3}

	run := func(p Policy) map[string]*tensor.Tensor {
		tp := NewTape()
		logits := buildMLP(tp, x, w1.Clone(), b1.Clone(), w2.Clone())
		_, seed := SoftmaxCE(logits, labels)
		if err := tp.Backward(logits, seed, p); err != nil {
			t.Fatal(err)
		}
		out := map[string]*tensor.Tensor{}
		for _, v := range tp.Params() {
			out[v.Name] = v.Grad
		}
		return out
	}
	ref := run(Conventional)
	for _, p := range []Policy{DeferParams, DeferParamsAscending} {
		got := run(p)
		for name := range ref {
			if !tensor.Equal(ref[name], got[name]) {
				t.Fatalf("policy %v: %s gradients differ", p, name)
			}
		}
	}
}

func TestFanOutAccumulates(t *testing.T) {
	// y = x·W used twice: grads must sum across both consumers under every
	// policy.
	rng := tensor.NewRNG(11)
	xT := tensor.Randn(rng, 1, 2, 3)
	wT := tensor.Randn(rng, 0.5, 3, 3)
	run := func(p Policy) *tensor.Tensor {
		tp := NewTape()
		x := tp.Input(xT)
		w := tp.Param("w", wT.Clone())
		h := MatMul(x, w)
		a := ReLU(h)
		b := ReLU(h) // second consumer of h
		sum := AddBias(a, tp.Param("bias", tensor.New(1, 3)))
		sum2 := AddBias(b, tp.Param("bias2", tensor.New(1, 3)))
		final := MatMul(sum, tp.Param("head", tensor.Randn(tensor.NewRNG(3), 0.5, 3, 2)))
		final2 := MatMul(sum2, tp.Param("head2", tensor.Randn(tensor.NewRNG(4), 0.5, 3, 2)))
		_ = final2
		_, seed := SoftmaxCE(final, []int{0, 1})
		if err := tp.Backward(final, seed, p); err != nil {
			t.Fatal(err)
		}
		return tp.Params()[0].Grad.Clone()
	}
	a := run(Conventional)
	b := run(DeferParams)
	if !tensor.Equal(a, b) {
		t.Fatal("fan-out gradients differ across policies")
	}
}

func TestCrossTapeRejected(t *testing.T) {
	t1, t2 := NewTape(), NewTape()
	a := t1.Input(tensor.New(1, 2))
	b := t2.Param("w", tensor.New(2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic mixing tapes")
		}
	}()
	MatMul(a, b)
}

// Property: training an MLP on the tape under DeferParams matches
// Conventional step for step on random data.
func TestTapeTrainingEquivalenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		x, labels := data.Vectors(seed, 8, 6, 3)
		mk := func() (*tensor.Tensor, *tensor.Tensor, *tensor.Tensor) {
			rng := tensor.NewRNG(seed ^ 0xabc)
			return tensor.Randn(rng, 0.5, 6, 8), tensor.Randn(rng, 0.5, 1, 8), tensor.Randn(rng, 0.5, 8, 3)
		}
		train := func(p Policy) float64 {
			w1, b1, w2 := mk()
			var last float64
			for it := 0; it < 4; it++ {
				tp := NewTape()
				logits := buildMLP(tp, x, w1, b1, w2)
				loss, seedG := SoftmaxCE(logits, labels)
				last = loss
				if err := tp.Backward(logits, seedG, p); err != nil {
					return math.NaN()
				}
				for _, v := range tp.Params() {
					for i := range v.Value.Data {
						v.Value.Data[i] -= 0.1 * v.Grad.Data[i]
					}
				}
			}
			return last
		}
		return train(Conventional) == train(DeferParams)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBackwardRejectsForeignRoot(t *testing.T) {
	t1, t2 := NewTape(), NewTape()
	r := tensor.NewRNG(1)
	v := t2.Input(tensor.Randn(r, 1, 1, 2))
	if err := t1.Backward(v, tensor.New(1, 2), Conventional); err == nil {
		t.Fatal("foreign root accepted")
	}
}
