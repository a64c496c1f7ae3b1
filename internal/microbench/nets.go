package microbench

import (
	"oooback/internal/calib"
	"oooback/internal/data"
	"oooback/internal/nn"
	"oooback/internal/tensor"
	"oooback/internal/train"
)

// RefNet is one of the three real reference networks with its fixed batch:
// the nets the train rows measure, `oooexp calib` profiles and the train-*
// timeline runs trace (the MLP).
type RefNet struct {
	Name   string
	Build  func() *train.Network // a fresh, identically seeded network per call
	X      *tensor.Tensor
	Labels []int
}

// MLP is the 64-96×4-4 perceptron at batch 32 — the net of the differential
// suites and of every data-parallel and pipeline row.
func MLP() RefNet {
	x, labels := data.Vectors(3, 32, 64, 4)
	return RefNet{"mlp", func() *train.Network { return train.MLPNet(11, 64, 96, 4, 4) }, x, labels}
}

// Conv is the small 14×14 conv net at batch 8.
func Conv() RefNet {
	x, labels := data.Images(5, 8, 1, 14, 14, 4)
	return RefNet{"conv", func() *train.Network { return train.ConvNet(13, 14, 6, 4) }, x, labels}
}

// NLP is the token-embedding net at batch 16, sequence length 12.
func NLP() RefNet {
	x, labels := train.TokenBatch(7, 16, 12, 80, 4)
	return RefNet{"nlp", func() *train.Network { return train.TokenNet(17, 80, 24, 12, 48, 4) }, x, labels}
}

// RefNets returns the three reference networks.
func RefNets() []RefNet { return []RefNet{MLP(), Conv(), NLP()} }

const (
	profileSteps  = 12
	profileWarmup = 3
)

// ProfileRefNets trains every reference network for a few steps on the serial
// engine with the profiler attached and collects the per-op timings.
func ProfileRefNets() (*calib.Profile, error) {
	prof := &calib.Profile{Version: calib.ProfileVersion}
	for _, rn := range RefNets() {
		np, err := train.Profile(rn.Name, rn.Build(), rn.X, rn.Labels, &nn.SGD{LR: 0.05}, profileSteps, profileWarmup)
		if err != nil {
			return nil, err
		}
		prof.Nets = append(prof.Nets, np)
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	return prof, nil
}
