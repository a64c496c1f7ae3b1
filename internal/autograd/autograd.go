// Package autograd implements a define-by-run reverse-mode automatic
// differentiation tape, the alternative implementation path §7 of the paper
// sketches for PyTorch: "ooo backprop can be implemented by modifying its
// autograd engine".
//
// The tape records every primitive operation during the forward computation.
// Backward normally replays the tape in reverse; here, each recorded node
// exposes its vector–Jacobian products *per input*, so the gradients flowing
// to parameters (the δW computations) are separate closures from the
// gradients flowing to earlier activations (the δO chain). Backward accepts
// an execution policy that may defer the parameter VJPs arbitrarily — the
// tape-level equivalent of out-of-order backprop, verified bit-for-bit
// against the conventional order.
package autograd

import (
	"fmt"

	"oooback/internal/tensor"
)

// Variable is a node in the computation graph: a value plus, for leaves
// created with Param, an accumulated gradient.
type Variable struct {
	Value *tensor.Tensor
	// Grad accumulates for parameters (nil for intermediates).
	Grad *tensor.Tensor
	// Name labels parameters for snapshots.
	Name string

	tape  *Tape
	id    int
	param bool
}

// node is one recorded primitive: output id, input ids, and one VJP closure
// per input. A VJP receives the gradient w.r.t. the node's output and
// returns the gradient contribution w.r.t. that input.
type node struct {
	out  int
	ins  []int
	vjps []func(gradOut *tensor.Tensor) *tensor.Tensor
}

// Tape records operations for reverse-mode differentiation.
type Tape struct {
	vars  []*Variable
	nodes []node
}

// NewTape creates an empty tape.
func NewTape() *Tape { return &Tape{} }

// Param registers a learnable leaf.
func (t *Tape) Param(name string, value *tensor.Tensor) *Variable {
	v := &Variable{Value: value, Grad: tensor.New(value.Shape...), Name: name,
		tape: t, id: len(t.vars), param: true}
	t.vars = append(t.vars, v)
	return v
}

// Input registers a non-learnable leaf (data).
func (t *Tape) Input(value *tensor.Tensor) *Variable {
	v := &Variable{Value: value, tape: t, id: len(t.vars)}
	t.vars = append(t.vars, v)
	return v
}

// intermediate wraps an op result.
func (t *Tape) intermediate(value *tensor.Tensor) *Variable {
	v := &Variable{Value: value, tape: t, id: len(t.vars)}
	t.vars = append(t.vars, v)
	return v
}

// record appends a node.
func (t *Tape) record(out *Variable, ins []*Variable, vjps []func(*tensor.Tensor) *tensor.Tensor) {
	ids := make([]int, len(ins))
	for i, in := range ins {
		if in.tape != t {
			panic("autograd: variable from another tape")
		}
		ids[i] = in.id
	}
	t.nodes = append(t.nodes, node{out: out.id, ins: ids, vjps: vjps})
}

// Params returns the registered parameters in creation order.
func (t *Tape) Params() []*Variable {
	var out []*Variable
	for _, v := range t.vars {
		if v.param {
			out = append(out, v)
		}
	}
	return out
}

// Policy chooses when deferred parameter VJPs run during Backward.
type Policy int

const (
	// Conventional runs every VJP at its node's position in the reverse
	// sweep — standard autograd.
	Conventional Policy = iota
	// DeferParams runs activation VJPs in the reverse sweep and all
	// parameter VJPs afterwards, in reverse node order — tape-level gradient
	// fast-forwarding.
	DeferParams
	// DeferParamsAscending defers parameter VJPs and then runs them in
	// *forward* node order — tape-level reverse first-k with k = all layers
	// (the order that releases the earliest layers' gradients first).
	DeferParamsAscending
)

// Backward differentiates the scalar-producing root with the given seed
// gradient, executing parameter VJPs according to the policy. The activation
// gradient chain always runs in reverse node order (it is the critical
// dependency chain); only the parameter VJPs move.
func (t *Tape) Backward(root *Variable, seed *tensor.Tensor, policy Policy) error {
	if root.tape != t {
		return fmt.Errorf("autograd: root from another tape")
	}
	grads := make(map[int]*tensor.Tensor, len(t.vars))
	grads[root.id] = seed

	accumulate := func(id int, g *tensor.Tensor) {
		if cur, ok := grads[id]; ok {
			tensor.AddTo(cur, g)
		} else {
			grads[id] = g.Clone()
		}
	}

	type deferred struct {
		nodeIdx, inIdx int
		gradOut        *tensor.Tensor
	}
	var later []deferred

	for n := len(t.nodes) - 1; n >= 0; n-- {
		nd := t.nodes[n]
		gOut, ok := grads[nd.out]
		if !ok {
			continue // branch not on the path to root
		}
		for i, in := range nd.ins {
			if nd.vjps[i] == nil {
				continue
			}
			if policy != Conventional && t.vars[in].param {
				later = append(later, deferred{n, i, gOut})
				continue
			}
			g := nd.vjps[i](gOut)
			if t.vars[in].param {
				tensor.AddTo(t.vars[in].Grad, g)
			} else {
				accumulate(in, g)
			}
		}
	}

	if policy == DeferParamsAscending {
		for i, j := 0, len(later)-1; i < j; i, j = i+1, j-1 {
			later[i], later[j] = later[j], later[i]
		}
	}
	for _, d := range later {
		nd := t.nodes[d.nodeIdx]
		g := nd.vjps[d.inIdx](d.gradOut)
		tensor.AddTo(t.vars[nd.ins[d.inIdx]].Grad, g)
	}
	return nil
}
