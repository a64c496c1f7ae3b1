package nn

import (
	"math"
	"testing"
	"testing/quick"

	"oooback/internal/tensor"
)

// numericalGrad computes dLoss/dparam[i] by central differences.
func numericalGrad(loss func() float64, data []float64, i int) float64 {
	const eps = 1e-6
	orig := data[i]
	data[i] = orig + eps
	up := loss()
	data[i] = orig - eps
	down := loss()
	data[i] = orig
	return (up - down) / (2 * eps)
}

func sumAll(t *tensor.Tensor) float64 {
	var s float64
	for _, v := range t.Data {
		s += v
	}
	return s
}

func TestDenseGradients(t *testing.T) {
	rng := tensor.NewRNG(1)
	d := NewDense("fc", 4, 3, rng)
	x := tensor.Randn(rng, 1, 2, 4)
	loss := func() float64 { return sumAll(d.Forward(x)) }
	out := d.Forward(x)
	gradOut := tensor.New(out.Shape...)
	for i := range gradOut.Data {
		gradOut.Data[i] = 1
	}
	gin := d.InputGrad(gradOut)
	d.W.ZeroGrad()
	d.B.ZeroGrad()
	d.WeightGrad(gradOut)
	for _, i := range []int{0, 5, 11} {
		num := numericalGrad(loss, d.W.Value.Data, i)
		if math.Abs(num-d.W.Grad.Data[i]) > 1e-5 {
			t.Fatalf("W grad[%d] = %v, numeric %v", i, d.W.Grad.Data[i], num)
		}
	}
	for i := 0; i < 3; i++ {
		num := numericalGrad(loss, d.B.Value.Data, i)
		if math.Abs(num-d.B.Grad.Data[i]) > 1e-5 {
			t.Fatalf("B grad[%d] = %v, numeric %v", i, d.B.Grad.Data[i], num)
		}
	}
	for _, i := range []int{0, 7} {
		num := numericalGrad(loss, x.Data, i)
		if math.Abs(num-gin.Data[i]) > 1e-5 {
			t.Fatalf("input grad[%d] = %v, numeric %v", i, gin.Data[i], num)
		}
	}
}

func TestReLU(t *testing.T) {
	r := NewReLU("relu")
	x := tensor.FromSlice([]float64{-1, 0, 2, -3}, 1, 4)
	out := r.Forward(x)
	want := []float64{0, 0, 2, 0}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("relu = %v", out.Data)
		}
	}
	g := tensor.FromSlice([]float64{1, 1, 1, 1}, 1, 4)
	gin := r.InputGrad(g)
	wantG := []float64{0, 0, 1, 0}
	for i := range wantG {
		if gin.Data[i] != wantG[i] {
			t.Fatalf("relu grad = %v", gin.Data)
		}
	}
	if len(r.Params()) != 0 {
		t.Fatal("relu has params")
	}
}

func TestConv2DLayerGradientsNumerically(t *testing.T) {
	rng := tensor.NewRNG(2)
	l := NewConv2D("conv", 2, 1, 3, 3, rng)
	x := tensor.Randn(rng, 1, 1, 1, 5, 5)
	loss := func() float64 { return sumAll(l.Forward(x)) }
	out := l.Forward(x)
	gradOut := tensor.New(out.Shape...)
	for i := range gradOut.Data {
		gradOut.Data[i] = 1
	}
	l.W.ZeroGrad()
	l.WeightGrad(gradOut)
	gin := l.InputGrad(gradOut)
	for _, i := range []int{0, 9, 17} {
		num := numericalGrad(loss, l.W.Value.Data, i)
		if math.Abs(num-l.W.Grad.Data[i]) > 1e-5 {
			t.Fatalf("conv W grad[%d] = %v, numeric %v", i, l.W.Grad.Data[i], num)
		}
	}
	for _, i := range []int{0, 12, 24} {
		num := numericalGrad(loss, x.Data, i)
		if math.Abs(num-gin.Data[i]) > 1e-5 {
			t.Fatalf("conv input grad[%d] = %v, numeric %v", i, gin.Data[i], num)
		}
	}
}

func TestWeightGradAccumulates(t *testing.T) {
	rng := tensor.NewRNG(3)
	d := NewDense("fc", 2, 2, rng)
	x := tensor.Randn(rng, 1, 1, 2)
	out := d.Forward(x)
	g := tensor.New(out.Shape...)
	for i := range g.Data {
		g.Data[i] = 1
	}
	d.W.ZeroGrad()
	d.WeightGrad(g)
	once := d.W.Grad.Clone()
	d.WeightGrad(g)
	twice := d.W.Grad
	for i := range once.Data {
		if twice.Data[i] != 2*once.Data[i] {
			t.Fatal("WeightGrad does not accumulate")
		}
	}
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits := tensor.FromSlice([]float64{2, 0, 0, 0, 3, 0}, 2, 3)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0, 1})
	if loss <= 0 || math.IsNaN(loss) {
		t.Fatalf("loss = %v", loss)
	}
	// Gradient rows sum to zero (softmax property).
	for r := 0; r < 2; r++ {
		var s float64
		for c := 0; c < 3; c++ {
			s += grad.At(r, c)
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("grad row %d sums to %v", r, s)
		}
	}
	// Correct-class gradient is negative.
	if grad.At(0, 0) >= 0 || grad.At(1, 1) >= 0 {
		t.Fatal("correct-class gradient not negative")
	}
}

func TestSoftmaxCrossEntropyNumerically(t *testing.T) {
	rng := tensor.NewRNG(4)
	logits := tensor.Randn(rng, 1, 2, 4)
	labels := []int{3, 1}
	_, grad := SoftmaxCrossEntropy(logits, labels)
	loss := func() float64 {
		l, _ := SoftmaxCrossEntropy(logits, labels)
		return l
	}
	for _, i := range []int{0, 3, 5, 7} {
		num := numericalGrad(loss, logits.Data, i)
		if math.Abs(num-grad.Data[i]) > 1e-5 {
			t.Fatalf("ce grad[%d] = %v, numeric %v", i, grad.Data[i], num)
		}
	}
}

func TestOptimizersDescend(t *testing.T) {
	// Minimize f(w) = Σ w² from the same start with each optimizer.
	mk := func() *Param {
		v := tensor.FromSlice([]float64{3, -2, 1}, 3)
		return &Param{Name: "w", Value: v, Grad: tensor.New(3)}
	}
	opts := map[string]Optimizer{
		"sgd":      &SGD{LR: 0.1},
		"momentum": &Momentum{LR: 0.05, Beta: 0.9},
		"rmsprop":  &RMSProp{LR: 0.05, Decay: 0.9},
		"adam":     &Adam{LR: 0.1},
	}
	for name, opt := range opts {
		p := mk()
		normSq := func() float64 {
			var s float64
			for _, v := range p.Value.Data {
				s += v * v
			}
			return s
		}
		start := normSq()
		for it := 0; it < 100; it++ {
			for i, v := range p.Value.Data {
				p.Grad.Data[i] = 2 * v
			}
			opt.Step([]*Param{p})
		}
		if end := normSq(); end >= start/10 {
			t.Errorf("%s did not descend: %v -> %v", name, start, end)
		}
	}
}

// stepRuleGrads are the gradients the step-rule tests feed an optimizer on
// its first and second step, from w0.
var (
	stepRuleW0    = []float64{3, -2, 1, 0.5}
	stepRuleGrads = [][]float64{{0.5, -1, 2, 0}, {-0.25, 0.75, 1, -3}}
)

// checkStepRule steps opt twice over a fresh parameter at stepRuleW0 with
// stepRuleGrads and compares each step's weights with want(step, i, w),
// which applies the documented update to element i. The optimizer must leave
// the gradients it read intact.
func checkStepRule(t *testing.T, opt Optimizer, want func(step, i int, w float64) float64) {
	t.Helper()
	p := &Param{Name: "w", Value: tensor.FromSlice(append([]float64(nil), stepRuleW0...), 4), Grad: tensor.New(4)}
	w := append([]float64(nil), stepRuleW0...)
	for step, g := range stepRuleGrads {
		copy(p.Grad.Data, g)
		opt.Step([]*Param{p})
		for i := range w {
			w[i] = want(step, i, w[i])
			if got := p.Value.Data[i]; math.Abs(got-w[i]) > 1e-12*math.Max(1, math.Abs(w[i])) {
				t.Fatalf("step %d: w[%d] = %v, want %v", step+1, i, got, w[i])
			}
			if p.Grad.Data[i] != g[i] {
				t.Fatalf("step %d: grad[%d] changed to %v", step+1, i, p.Grad.Data[i])
			}
		}
	}
}

// TestSGDStepRule: w ← w − lr·g.
func TestSGDStepRule(t *testing.T) {
	const lr = 0.1
	checkStepRule(t, &SGD{LR: lr}, func(step, i int, w float64) float64 {
		return w - lr*stepRuleGrads[step][i]
	})
}

// TestMomentumStepRule: v ← βv + g; w ← w − lr·v, with the velocity carried
// from one step to the next.
func TestMomentumStepRule(t *testing.T) {
	const lr, beta = 0.05, 0.9
	v := make([]float64, len(stepRuleW0))
	checkStepRule(t, &Momentum{LR: lr, Beta: beta}, func(step, i int, w float64) float64 {
		v[i] = beta*v[i] + stepRuleGrads[step][i]
		return w - lr*v[i]
	})
}

// TestRMSPropStepRule: s ← ρs + (1−ρ)g²; w ← w − lr·g/√(s+ε).
func TestRMSPropStepRule(t *testing.T) {
	const lr, decay, eps = 0.01, 0.9, 1e-6
	s := make([]float64, len(stepRuleW0))
	checkStepRule(t, &RMSProp{LR: lr, Decay: decay, Eps: eps}, func(step, i int, w float64) float64 {
		g := stepRuleGrads[step][i]
		s[i] = decay*s[i] + (1-decay)*g*g
		return w - lr*g/math.Sqrt(s[i]+eps)
	})
}

// TestAdamStepRule: the bias-corrected update w ← w − lr·m̂/(√v̂ + ε), with
// m̂ = m/(1−β₁ᵗ) and v̂ = v/(1−β₂ᵗ).
func TestAdamStepRule(t *testing.T) {
	const lr, b1, b2, eps = 0.1, 0.8, 0.99, 1e-6
	m := make([]float64, len(stepRuleW0))
	v := make([]float64, len(stepRuleW0))
	checkStepRule(t, &Adam{LR: lr, Beta1: b1, Beta2: b2, Eps: eps}, func(step, i int, w float64) float64 {
		g := stepRuleGrads[step][i]
		m[i] = b1*m[i] + (1-b1)*g
		v[i] = b2*v[i] + (1-b2)*g*g
		tt := float64(step + 1)
		mHat := m[i] / (1 - math.Pow(b1, tt))
		vHat := v[i] / (1 - math.Pow(b2, tt))
		return w - lr*mHat/(math.Sqrt(vHat)+eps)
	})
}

// TestOptimizerZeroHyperparamsDefault: a zero Eps (RMSProp, Adam) or zero
// Beta1/Beta2 (Adam) means the documented default, so the zero-valued
// optimizer lands on the same bits as one with the defaults spelled out, and
// each parameter keeps its own state when several step together.
func TestOptimizerZeroHyperparamsDefault(t *testing.T) {
	for name, pair := range map[string][2]Optimizer{
		"rmsprop": {&RMSProp{LR: 0.01, Decay: 0.9}, &RMSProp{LR: 0.01, Decay: 0.9, Eps: 1e-8}},
		"adam":    {&Adam{LR: 0.1}, &Adam{LR: 0.1, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}},
	} {
		mk := func() []*Param {
			return []*Param{
				{Name: "a", Value: tensor.FromSlice([]float64{3, -2, 1}, 3), Grad: tensor.New(3)},
				{Name: "b", Value: tensor.FromSlice([]float64{-1, 4}, 2), Grad: tensor.New(2)},
			}
		}
		implicit, explicit := mk(), mk()
		for it := 0; it < 5; it++ {
			for _, ps := range [][]*Param{implicit, explicit} {
				for _, p := range ps {
					for i, w := range p.Value.Data {
						p.Grad.Data[i] = 2*w + float64(it)
					}
				}
			}
			pair[0].Step(implicit)
			pair[1].Step(explicit)
		}
		for k := range implicit {
			if !tensor.Equal(implicit[k].Value, explicit[k].Value) {
				t.Errorf("%s: param %s %v with zero hyperparameters, %v with the defaults",
					name, implicit[k].Name, implicit[k].Value.Data, explicit[k].Value.Data)
			}
		}
	}
}

func TestFlatten(t *testing.T) {
	f := NewFlatten("flat")
	x := tensor.New(2, 3, 4, 4)
	out := f.Forward(x)
	if out.Shape[0] != 2 || out.Shape[1] != 48 {
		t.Fatalf("flatten shape = %v", out.Shape)
	}
	g := tensor.New(2, 48)
	back := f.InputGrad(g)
	if len(back.Shape) != 4 || back.Shape[3] != 4 {
		t.Fatalf("unflatten shape = %v", back.Shape)
	}
}

// Property: Dense InputGrad is linear in gradOut.
func TestDenseInputGradLinearProperty(t *testing.T) {
	rng := tensor.NewRNG(9)
	d := NewDense("fc", 3, 3, rng)
	x := tensor.Randn(rng, 1, 2, 3)
	d.Forward(x)
	f := func(seed uint64, scale uint8) bool {
		r := tensor.NewRNG(seed)
		g := tensor.Randn(r, 1, 2, 3)
		s := float64(scale%7) + 1
		scaled := func(t *tensor.Tensor) *tensor.Tensor {
			t = t.Clone()
			tensor.ScaleSpan(t.Data, s)
			return t
		}
		a := d.InputGrad(scaled(g))
		b := scaled(d.InputGrad(g))
		return tensor.MaxAbsDiff(a, b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
