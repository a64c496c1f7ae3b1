package train

import (
	"fmt"
	"strings"
	"testing"

	"oooback/internal/data"
	"oooback/internal/nn"
	"oooback/internal/tensor"
)

// TestLaneNetsConstructorErrors: both multi-lane engines reject a Build that
// cannot give them lanes — none at all, one that returns nil, one whose
// parameters do not align with the prototype's — with an error, never a
// panic.
func TestLaneNetsConstructorErrors(t *testing.T) {
	proto := func() *Network { return MLPNet(11, 16, 24, 2, 3) }
	builds := []struct {
		name  string
		build func() *Network
	}{
		{"nil build", nil},
		{"build returns nil", func() *Network { return nil }},
		{"param count", func() *Network { return MLPNet(11, 16, 24, 1, 3) }},
		{"param size", func() *Network { return MLPNet(11, 16, 10, 2, 3) }},
		{"param name", func() *Network {
			net := proto()
			net.Layers[0] = nn.NewDense("other", 16, 24, tensor.NewRNG(1))
			return net
		}},
	}
	engines := []struct {
		name string
		make func(build func() *Network) error
	}{
		{"pipeline", func(build func() *Network) error {
			p, err := NewPipeline(proto(), &nn.SGD{LR: 0.1}, PipelineConfig{Stages: 2, Build: build})
			if err == nil {
				p.Close()
			}
			return err
		}},
		{"dataparallel", func(build func() *Network) error {
			dp, err := NewDataParallel(proto(), &nn.SGD{LR: 0.1}, DataParallelConfig{Replicas: 2, Build: build})
			if err == nil {
				dp.Close()
			}
			return err
		}},
	}
	for _, eng := range engines {
		for _, b := range builds {
			t.Run(fmt.Sprintf("%s/%s", eng.name, b.name), func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("constructor panicked: %v", r)
					}
				}()
				err := eng.make(b.build)
				if err == nil || !strings.HasPrefix(err.Error(), "train: ") {
					t.Fatalf("got %v, want a train error", err)
				}
			})
		}
	}
}

// TestReplicasReadPrototypeWeights: every data-parallel replica reads the
// prototype's weight arrays and folds into gradient arrays of its own, before
// and after a step, so an update needs no copy and the reducer has N
// gradients to sum.
func TestReplicasReadPrototypeWeights(t *testing.T) {
	var built []*Network
	build := func() *Network {
		net := MLPNet(11, 16, 24, 2, 3)
		built = append(built, net)
		return net
	}
	proto := MLPNet(11, 16, 24, 2, 3)
	dp, err := NewDataParallel(proto, &nn.SGD{LR: 0.1}, DataParallelConfig{Replicas: 3, Build: build})
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	if len(built) != 2 {
		t.Fatalf("Build called %d times for 3 replicas, want 2", len(built))
	}
	x, labels := data.Vectors(3, 12, 16, 3)
	for step := 0; step < 2; step++ {
		for r, net := range built {
			for i, p := range net.Params() {
				pp := proto.Params()[i]
				if &p.Value.Data[0] != &pp.Value.Data[0] {
					t.Fatalf("step %d: replica %d's %s does not read the prototype's weights", step, r+1, p.Name)
				}
				if &p.Grad.Data[0] == &pp.Grad.Data[0] {
					t.Fatalf("step %d: replica %d's %s folds into the prototype's gradient", step, r+1, p.Name)
				}
				for _, other := range built[:r] {
					if &p.Grad.Data[0] == &other.Params()[i].Grad.Data[0] {
						t.Fatalf("step %d: replicas share the gradient of %s", step, p.Name)
					}
				}
			}
		}
		if _, _, err := dp.Step(x, labels); err != nil {
			t.Fatal(err)
		}
	}
}
