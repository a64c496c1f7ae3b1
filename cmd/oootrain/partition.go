package main

import (
	"time"

	"oooback/internal/calib"
	"oooback/internal/graph"
	"oooback/internal/tensor"
	"oooback/internal/train"
)

const (
	partitionSteps  = 8
	partitionWarmup = 2
)

// balancedPartition computes a measured-cost-balanced pipeline partition: a
// throwaway copy of the network is trained for a few serial steps with the
// calib profiler attached, each layer's fwd+δO+δW medians are summed into a
// per-layer cost, and graph.PartitionBalanced — the balancer the pipeline
// simulator and the planner use — minimizes the maximum per-stage cost sum.
// The pre-pass trains a fresh build() network, so the caller's networks are
// untouched; moving stage boundaries never changes the gradient bits (the
// pipeline's bitwise contract holds under any partition).
func balancedPartition(build func() *train.Network, x *tensor.Tensor, labels []int,
	optName string, stages int) (graph.Partition, error) {
	np, err := train.Profile("partition-prepass", build(), x, labels, mkOpt(optName), partitionSteps, partitionWarmup)
	if err != nil {
		return graph.Partition{}, err
	}
	return graph.PartitionBalanced(layerCosts(np), stages)
}

// layerCosts folds a serial profile's medians into one cost per 0-based
// layer: fwd + δO + δW. Step-scoped ops (loss, update, zeroGrad) don't move
// with a stage boundary, so they don't influence the split.
func layerCosts(np calib.NetProfile) []time.Duration {
	costs := make([]time.Duration, np.Layers)
	for _, op := range np.Ops {
		if op.Layer < 1 {
			continue
		}
		switch op.Kind {
		case "fwd", "dO", "dW", "dWFill":
			costs[op.Layer-1] += time.Duration(op.MedianNs)
		}
	}
	return costs
}
