// Package train executes real (CPU) training steps under arbitrary backward
// schedules and verifies the paper's semantics-preservation claim (§8:
// "our optimizations do not change the semantics of neural network
// training"). A Network is a layer stack from internal/nn; Backward walks any
// legal graph.BackwardSchedule, so conventional backprop, reverse first-k,
// gradient fast-forwarding and arbitrary list schedules can all be executed
// on the same forward state and their gradients compared bit for bit.
package train

import (
	"fmt"
	"math"
	"slices"

	"oooback/internal/graph"
	"oooback/internal/nn"
	"oooback/internal/tensor"
)

// Network is an ordered stack of layers.
type Network struct {
	Layers []nn.Layer

	// params caches the flattened parameter list. ZeroGrads, optimizer steps
	// and snapshots all walk it every training step, so rebuilding it each
	// call dominated per-step overhead in tight training loops.
	params []*nn.Param
}

// Params collects all learnable parameters in layer order. The list is
// computed once and cached, so Layers must not change after first use.
func (n *Network) Params() []*nn.Param {
	if n.params == nil {
		out := make([]*nn.Param, 0, 2*len(n.Layers))
		for _, l := range n.Layers {
			out = append(out, l.Params()...)
		}
		n.params = out
	}
	return n.params
}

// ZeroGrads clears every parameter gradient.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// Forward runs the stack and returns the logits.
func (n *Network) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := x
	for _, l := range n.Layers {
		out = l.Forward(out)
	}
	return out
}

// BackwardStats reports what a Backward walk did; used by tests and the
// memory experiments.
type BackwardStats struct {
	// PeakLiveGrads is the maximum number of gradient tensors simultaneously
	// retained (deferred δW force retention, §3).
	PeakLiveGrads int
}

// Backward executes the backward pass in the given schedule order. lossGrad
// is the gradient of the loss w.r.t. the network output (δO_{L+1}).
// Gradient tensors are retained exactly until both of their consumers (δO
// and δW of the layer) have run, mirroring the memory rule of
// graph.MemoryProfile.
func (n *Network) Backward(lossGrad *tensor.Tensor, sched graph.BackwardSchedule) (BackwardStats, error) {
	L := len(n.Layers)
	if err := sched.Validate(L); err != nil {
		return BackwardStats{}, fmt.Errorf("train: %w", err)
	}
	grads := make([]*tensor.Tensor, L+1) // grads[i] = gradient into layer i (1-based)
	grads[L] = lossGrad
	doneDO := make([]bool, L+1)
	doneDW := make([]bool, L+1)
	live := 1
	peak := 1
	release := func(i int) {
		if doneDO[i] && doneDW[i] && grads[i] != nil {
			grads[i] = nil
			live--
		}
	}
	for _, op := range sched {
		i := op.Layer
		g := grads[i]
		if g == nil {
			return BackwardStats{}, fmt.Errorf("train: schedule op %v ran after its gradient was released", op)
		}
		switch op.Kind {
		case graph.OutGrad:
			gin := n.Layers[i-1].InputGrad(g)
			doneDO[i] = true
			if i > 1 {
				grads[i-1] = gin
				live++
				if live > peak {
					peak = live
				}
			}
		case graph.WeightGrad:
			n.Layers[i-1].WeightGrad(g)
			doneDW[i] = true
		}
		release(i)
	}
	return BackwardStats{PeakLiveGrads: peak}, nil
}

// Step runs one full training step — forward, loss, backward in the given
// order, optimizer update — through the plain allocating layer methods and
// returns the loss. It is the reference every engine's step is compared with
// bit for bit, so it shares no code with them; Executor.Step is the engine.
func Step(n *Network, x *tensor.Tensor, labels []int, sched graph.BackwardSchedule, opt nn.Optimizer) (float64, error) {
	n.ZeroGrads()
	loss, lossGrad := nn.SoftmaxCrossEntropy(n.Forward(x), labels)
	if _, err := n.Backward(lossGrad, sched); err != nil {
		return 0, err
	}
	opt.Step(n.Params())
	return loss, nil
}

// ParamSnapshot deep-copies every parameter value, keyed by name.
func ParamSnapshot(n *Network) map[string]*tensor.Tensor {
	out := make(map[string]*tensor.Tensor)
	for _, p := range n.Params() {
		out[p.Name] = p.Value.Clone()
	}
	return out
}

// SnapshotsEqual reports whether two snapshots are bit-for-bit identical.
func SnapshotsEqual(a, b map[string]*tensor.Tensor) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || !tensor.Equal(va, vb) {
			return false
		}
	}
	return true
}

// Trajectory is what a training run leaves for a semantics check: the loss of
// every step and the final parameters.
type Trajectory struct {
	Losses  []float64
	Weights map[string]*tensor.Tensor
}

// TrainSteps calls step(0) … step(steps−1), each training net one step (on
// its own or through an engine that owns it) and returning that step's loss,
// then snapshots net's parameters. The first error ends the run, naming its
// step.
func TrainSteps(net *Network, steps int, step func(i int) (float64, error)) (Trajectory, error) {
	losses := make([]float64, 0, steps)
	for i := 0; i < steps; i++ {
		loss, err := step(i)
		if err != nil {
			return Trajectory{}, fmt.Errorf("step %d: %w", i, err)
		}
		losses = append(losses, loss)
	}
	return Trajectory{Losses: losses, Weights: ParamSnapshot(net)}, nil
}

// Identical reports whether t trained bit-identically to ref: every step's
// loss equal, and every final parameter equal bit for bit.
func (t Trajectory) Identical(ref Trajectory) (losses, weights bool) {
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	return slices.EqualFunc(t.Losses, ref.Losses, sameBits), SnapshotsEqual(t.Weights, ref.Weights)
}
