package models

import (
	"fmt"
	"sort"
)

// ZooEntry is one named model configuration of the paper's Table 1, buildable
// for any GPU profile. The zoo gives the planning service and the zoo-wide
// experiments a stable, validated set of model names, so callers can request
// a plan without shipping a full layer-cost profile.
type ZooEntry struct {
	// Name is the canonical lower-case identifier ("resnet50", "bert24", ...).
	Name string
	// Title describes the configuration as evaluated in the paper.
	Title string
	// Build synthesizes the model's layer costs for the given GPU profile.
	Build func(p GPUProfile) *Model
}

// zoo holds the Table 1 configurations keyed by canonical name. Batch sizes
// and shape parameters match internal/experiments.Setup.
var zoo = map[string]ZooEntry{
	"densenet121": {"densenet121", "DenseNet-121 k=12, CIFAR-100",
		func(p GPUProfile) *Model { return DenseNet(p, 121, 12, 32, CIFAR100) }},
	"densenet169": {"densenet169", "DenseNet-169 k=32, CIFAR-100",
		func(p GPUProfile) *Model { return DenseNet(p, 169, 32, 32, CIFAR100) }},
	"mobilenetv3-025": {"mobilenetv3-025", "MobileNet V3 Large α=0.25, ImageNet",
		func(p GPUProfile) *Model { return MobileNetV3Large(p, 0.25, 32, ImageNet) }},
	"mobilenetv3-1": {"mobilenetv3-1", "MobileNet V3 Large α=1, ImageNet",
		func(p GPUProfile) *Model { return MobileNetV3Large(p, 1.0, 32, ImageNet) }},
	"resnet50": {"resnet50", "ResNet-50, ImageNet",
		func(p GPUProfile) *Model { return ResNet(p, 50, 128, ImageNet) }},
	"resnet101": {"resnet101", "ResNet-101, ImageNet",
		func(p GPUProfile) *Model { return ResNet(p, 101, 96, ImageNet) }},
	"resnet152": {"resnet152", "ResNet-152, ImageNet",
		func(p GPUProfile) *Model { return ResNet(p, 152, 64, ImageNet) }},
	"rnn": {"rnn", "RNN 16 cells, IWSLT",
		func(p GPUProfile) *Model { return RNN(p, 16, 1024, 32, 1024) }},
	"ffnn16": {"ffnn16", "FFNN-16 (§8.4.1)",
		func(p GPUProfile) *Model { return FFNN(p, 16, 4096, 1024) }},
	"bert12": {"bert12", "BERT-12 pre-training, MNLI/OpenWebText",
		func(p GPUProfile) *Model { return BERT(p, 12, 128, 512) }},
	"bert24": {"bert24", "BERT-24 fine-tuning",
		func(p GPUProfile) *Model { return BERT(p, 24, 128, 96) }},
	"bert48": {"bert48", "BERT-48 pre-training",
		func(p GPUProfile) *Model { return BERT(p, 48, 128, 1024) }},
	"gpt3-medium": {"gpt3-medium", "GPT-3 Medium, OpenWebText",
		func(p GPUProfile) *Model { return GPT3Medium(p, 512, 96) }},
}

// Zoo returns every entry sorted by name.
func Zoo() []ZooEntry {
	out := make([]ZooEntry, 0, len(zoo))
	for _, e := range zoo {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ZooNames returns the canonical model names, sorted.
func ZooNames() []string {
	out := make([]string, 0, len(zoo))
	for name := range zoo {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// LookupZoo returns the entry for name (canonical lower-case form).
func LookupZoo(name string) (ZooEntry, bool) {
	e, ok := zoo[name]
	return e, ok
}

// BuildZoo builds the named model for the given profile.
func BuildZoo(name string, p GPUProfile) (*Model, error) {
	e, ok := zoo[name]
	if !ok {
		return nil, fmt.Errorf("models: unknown zoo model %q", name)
	}
	return e.Build(p), nil
}
