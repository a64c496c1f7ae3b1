// Package core implements out-of-order backprop (§3) and the three
// scheduling algorithms built on it:
//
//   - multi-region joint scheduling (Algorithm 1, §4.1) for single-GPU
//     training with a prioritized main stream and a δW sub-stream;
//   - reverse first-k scheduling (Algorithm 2, §5.1) with the concave
//     heuristic search for the optimal k, for data-parallel training;
//   - gradient fast-forwarding and modulo layer allocation (§5.2) for
//     pipeline-parallel training.
//
// All algorithms exploit the same dependency fact (§3): a layer's
// weight-gradient computation δW_i consumes only the layer's stored input and
// its incoming gradient, so it may be deferred arbitrarily without affecting
// any other gradient, while the output-gradient chain δO_L → … → δO_1 is the
// critical path. The schedules produced here are plain data
// (graph.BackwardSchedule, region assignments, layer→GPU maps); the engines
// in internal/singlegpu, internal/datapar and internal/pipepar execute them
// on the simulated hardware.
package core

import "oooback/internal/graph"

// FastForward returns the gradient fast-forwarding order of §5.2.1: all
// output-gradient computations first (layer L down to 1), then all deferred
// weight-gradient computations in the same descending order (Fig 3b).
func FastForward(L int) graph.BackwardSchedule {
	s := make(graph.BackwardSchedule, 0, 2*L)
	for i := L; i >= 1; i-- {
		s = append(s, graph.Op{Kind: graph.OutGrad, Layer: i})
	}
	for i := L; i >= 1; i-- {
		s = append(s, graph.Op{Kind: graph.WeightGrad, Layer: i})
	}
	return s
}

// ModuloAllocation assigns layer groups of size groupSize round-robin across
// n GPUs (§5.2.1): group g goes to GPU g mod n. groupSize 1 is per-layer
// modulo allocation; §8.4.1 uses groupSize = 1 transformer for NVLink/PCIe
// and groupSize = 2 transformers for 10 Gb Ethernet.
func ModuloAllocation(L, n, groupSize int) []int {
	if n <= 0 {
		panic("core: non-positive GPU count")
	}
	if groupSize <= 0 {
		groupSize = 1
	}
	out := make([]int, L)
	for i := 0; i < L; i++ {
		out[i] = (i / groupSize) % n
	}
	return out
}
