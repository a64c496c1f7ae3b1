package nn

import (
	"math"

	"oooback/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients. The four
// optimizers the paper trains with (§8.1) are provided: SGD, momentum,
// RMSProp and Adam.
type Optimizer interface {
	// Step applies one update to every parameter and leaves gradients intact
	// (callers zero them at iteration start).
	Step(params []*Param)
}

// SGD is plain stochastic gradient descent.
type SGD struct{ LR float64 }

// Step applies w ← w − lr·g.
func (o *SGD) Step(params []*Param) {
	for _, p := range params {
		tensor.SubScaledSpan(p.Value.Data, p.Grad.Data, o.LR)
	}
}

// Momentum is SGD with classical momentum (the optimizer the paper reports
// throughput with).
type Momentum struct {
	LR, Beta float64
	vel      map[*Param][]float64
}

// Step applies v ← βv + g; w ← w − lr·v.
func (o *Momentum) Step(params []*Param) {
	if o.vel == nil {
		o.vel = make(map[*Param][]float64)
	}
	for _, p := range params {
		v := o.vel[p]
		if v == nil {
			v = make([]float64, len(p.Value.Data))
			o.vel[p] = v
		}
		tensor.ScaleSpan(v, o.Beta)
		tensor.AddSpan(v, p.Grad.Data)
		tensor.SubScaledSpan(p.Value.Data, v, o.LR)
	}
}

// RMSProp divides the step by a running RMS of gradients.
type RMSProp struct {
	LR, Decay, Eps float64
	sq             map[*Param][]float64
}

// Step applies s ← ρs + (1−ρ)g²; w ← w − lr·g/√(s+ε).
func (o *RMSProp) Step(params []*Param) {
	if o.sq == nil {
		o.sq = make(map[*Param][]float64)
	}
	eps := o.Eps
	if eps == 0 {
		eps = 1e-8
	}
	for _, p := range params {
		s := o.sq[p]
		if s == nil {
			s = make([]float64, len(p.Value.Data))
			o.sq[p] = s
		}
		for i := range p.Value.Data {
			g := p.Grad.Data[i]
			s[i] = o.Decay*s[i] + (1-o.Decay)*g*g
			p.Value.Data[i] -= o.LR * g / math.Sqrt(s[i]+eps)
		}
	}
}

// Adam is the optimizer the paper uses for BERT and GPT (§8.1).
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  map[*Param][]float64
}

// Step applies the bias-corrected Adam update.
func (o *Adam) Step(params []*Param) {
	if o.m == nil {
		o.m = make(map[*Param][]float64)
		o.v = make(map[*Param][]float64)
	}
	b1, b2 := o.Beta1, o.Beta2
	if b1 == 0 {
		b1 = 0.9
	}
	if b2 == 0 {
		b2 = 0.999
	}
	eps := o.Eps
	if eps == 0 {
		eps = 1e-8
	}
	o.t++
	c1 := 1 - math.Pow(b1, float64(o.t))
	c2 := 1 - math.Pow(b2, float64(o.t))
	for _, p := range params {
		m, v := o.m[p], o.v[p]
		if m == nil {
			m = make([]float64, len(p.Value.Data))
			v = make([]float64, len(p.Value.Data))
			o.m[p], o.v[p] = m, v
		}
		for i := range p.Value.Data {
			g := p.Grad.Data[i]
			m[i] = b1*m[i] + (1-b1)*g
			v[i] = b2*v[i] + (1-b2)*g*g
			p.Value.Data[i] -= o.LR * (m[i] / c1) / (math.Sqrt(v[i]/c2) + eps)
		}
	}
}

// StateWalker is implemented by optimizers that keep per-parameter internal
// state (velocity, squared-gradient averages, moments). The state maps are
// keyed by *Param, so their iteration order is nondeterministic; WalkState is
// the deterministic ordered path — it visits parameters in the given order and
// hands each one its state slices — which data-parallel runs and tests use to
// compare optimizer state across engines and processes.
type StateWalker interface {
	// WalkState visits every parameter in params order. State slices are the
	// optimizer's live buffers (not copies); a parameter that has not been
	// stepped yet gets nil slices.
	WalkState(params []*Param, visit func(p *Param, state ...[]float64))
}

// WalkState visits the velocity buffers in params order.
func (o *Momentum) WalkState(params []*Param, visit func(p *Param, state ...[]float64)) {
	for _, p := range params {
		visit(p, o.vel[p])
	}
}

// WalkState visits the squared-gradient buffers in params order.
func (o *RMSProp) WalkState(params []*Param, visit func(p *Param, state ...[]float64)) {
	for _, p := range params {
		visit(p, o.sq[p])
	}
}

// WalkState visits the first- and second-moment buffers in params order.
func (o *Adam) WalkState(params []*Param, visit func(p *Param, state ...[]float64)) {
	for _, p := range params {
		visit(p, o.m[p], o.v[p])
	}
}

// StateSnapshot deep-copies an optimizer's per-parameter state in params
// order, keyed by parameter name. Optimizers without internal state (SGD, or
// any non-StateWalker) yield an empty map; parameters not yet stepped are
// omitted.
func StateSnapshot(o Optimizer, params []*Param) map[string][][]float64 {
	out := make(map[string][][]float64)
	w, ok := o.(StateWalker)
	if !ok {
		return out
	}
	w.WalkState(params, func(p *Param, state ...[]float64) {
		cp := make([][]float64, 0, len(state))
		any := false
		for _, s := range state {
			if s != nil {
				any = true
			}
			cp = append(cp, append([]float64(nil), s...))
		}
		if any {
			out[p.Name] = cp
		}
	})
	return out
}

// StateSnapshotsEqual reports whether two state snapshots are bit-for-bit
// identical.
func StateSnapshotsEqual(a, b map[string][][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || len(va) != len(vb) {
			return false
		}
		for i := range va {
			if len(va[i]) != len(vb[i]) {
				return false
			}
			for j := range va[i] {
				if math.Float64bits(va[i][j]) != math.Float64bits(vb[i][j]) {
					return false
				}
			}
		}
	}
	return true
}
