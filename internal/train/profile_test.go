package train

import (
	"testing"

	"oooback/internal/calib"
	"oooback/internal/data"
	"oooback/internal/graph"
	"oooback/internal/models"
	"oooback/internal/nn"
	"oooback/internal/tensor"
)

// countKinds tallies a profiled net's op stats by kind string.
func countKinds(np calib.NetProfile) map[string]int {
	m := map[string]int{}
	for _, s := range np.Ops {
		m[s.Kind]++
	}
	return m
}

// TestObserver covers what every observer shares (no bit changes, the event
// multiset, allocations); the tests below keep what is ProfileObserver's own:
// the snapshot each engine's event stream folds into.

// TestExecutorProfiledStepBitwise: on both backward engines the snapshot
// validates and carries per-layer fwd/dO/dW stats — δO on every layer but the
// first, which no table runs (stepRows) — plus the step-scoped ops, with
// warmup steps discarded and a work feature on every layer.
func TestExecutorProfiledStepBitwise(t *testing.T) {
	x, labels := data.Vectors(3, 12, 16, 3)
	const steps = 6
	for _, mode := range []ExecMode{ExecSerial, ExecConcurrent} {
		t.Run(mode.String(), func(t *testing.T) {
			n := MLPNet(11, 16, 24, 3, 3)
			L := len(n.Layers)
			e := NewExecutor(mode, 2)
			defer e.Close()
			p := calib.NewProfiler("mlp", mode.String(), L, 2)
			e.Observe(ProfileObserver(p, n))
			sched := graph.ReverseFirstK(L, 2)
			opt := &nn.SGD{LR: 0.05}
			for s := 0; s < steps; s++ {
				if _, err := e.Step(n, x, labels, sched, opt); err != nil {
					t.Fatalf("step %d: %v", s, err)
				}
			}
			np := p.Snapshot()
			if err := (&calib.Profile{Version: calib.ProfileVersion, Nets: []calib.NetProfile{np}}).Validate(); err != nil {
				t.Fatalf("snapshot does not validate: %v", err)
			}
			kinds := countKinds(np)
			if kinds["fwd"] != L || kinds["dO"] != L-1 || kinds["dW"] != L {
				t.Fatalf("want %d fwd and dW stats and %d dO, got %v", L, L-1, kinds)
			}
			for _, k := range []string{"loss", "update", "zeroGrad"} {
				if kinds[k] != 1 {
					t.Fatalf("want 1 %s stat, got %v", k, kinds)
				}
			}
			if np.WarmSteps != steps-2 {
				t.Fatalf("want %d warm steps, got %d", steps-2, np.WarmSteps)
			}
			for _, s := range np.Ops {
				if s.Kind == "fwd" && s.Work <= 0 {
					t.Fatalf("layer %d fwd has no work feature", s.Layer)
				}
			}
		})
	}
}

// TestPipelineProfiledStepBitwise: a pipeline's snapshot records forward, δO,
// bubble-filled δW and the step-scoped ops under the engine's name.
func TestPipelineProfiledStepBitwise(t *testing.T) {
	build := func() *Network { return MLPNet(31, 6, 10, 3, 4) }
	x, labels := data.Vectors(41, 8, 6, 4)
	pipe, err := NewPipeline(build(), &nn.SGD{LR: 0.05}, PipelineConfig{
		Stages: 2, MicroBatches: 4, Schedule: Pipe1F1B, Build: build,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	L := len(pipe.proto.Layers)
	p := calib.NewProfiler("mlp-pipe", "pipeline", L, 2)
	pipe.Observe(ProfileObserver(p, pipe.proto))
	for s := 0; s < 5; s++ {
		if _, _, err := pipe.Step(x, labels); err != nil {
			t.Fatalf("pipe step %d: %v", s, err)
		}
	}
	np := p.Snapshot()
	if np.Engine != "pipeline" {
		t.Fatalf("engine = %q", np.Engine)
	}
	kinds := countKinds(np)
	if kinds["fwd"] != L {
		t.Fatalf("want %d fwd stats, got %v", L, kinds)
	}
	// Every layer's δW is deferred into bubbles, so dWFill covers all layers;
	// stage 0 skips the bottommost δO, like every table.
	if kinds["dWFill"] != L || kinds["dW"] != 0 {
		t.Fatalf("want %d dWFill and 0 inline dW stats, got %v", L, kinds)
	}
	if kinds["dO"] != L-1 {
		t.Fatalf("want %d dO stats, got %v", L-1, kinds)
	}
	if kinds["loss"] != 1 || kinds["update"] != 1 || kinds["zeroGrad"] != 1 {
		t.Fatalf("missing step-scoped stats: %v", kinds)
	}
}

// TestDataParallelProfilerRecordsReduce: the data-parallel snapshot carries
// one reduce stat per bucket with the bucket's element count as work, and the
// step wall.
func TestDataParallelProfilerRecordsReduce(t *testing.T) {
	build := func() *Network { return MLPNet(11, 16, 24, 3, 3) }
	x, labels := data.Vectors(3, 12, 16, 3)
	net := build()
	dp, err := NewDataParallel(net, &nn.SGD{LR: 0.05}, DataParallelConfig{
		Replicas: 2, Build: build, Sync: SyncLayerPriority, BucketBytes: 4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	p := calib.NewProfiler("mlp-dp", "datapar", len(net.Layers), 2)
	dp.Observe(ProfileObserver(p, net))
	for s := 0; s < 5; s++ {
		if _, _, err := dp.Step(x, labels); err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
	}
	np, plan := p.Snapshot(), dp.Plan()
	if kinds := countKinds(np); kinds["reduce"] != len(plan) {
		t.Fatalf("want %d reduce stats (one per bucket), got %v", len(plan), kinds)
	}
	byLayer := map[int]float64{}
	for _, s := range np.Ops {
		if s.Kind == "reduce" {
			byLayer[s.Layer] = s.Work
		}
	}
	for _, b := range plan {
		if byLayer[b.Layers[0]] != float64(b.Elems) {
			t.Fatalf("bucket at layer %d: work %v, want %d elems", b.Layers[0], byLayer[b.Layers[0]], b.Elems)
		}
	}
	if np.IterMedianNs <= 0 {
		t.Fatal("no iteration wall recorded")
	}
}

// TestLiveSerialProfileValidates: a profile of live serial steps of the MLP and
// the conv net — which has no δO_1 stat, as no table runs δO_1 — fits into a
// cost table and validates under it and under the hand-written default table.
// (The committed fixture TestCalibAccuracy gates still holds δO_1.)
func TestLiveSerialProfileValidates(t *testing.T) {
	mx, ml := data.Vectors(3, 12, 16, 3)
	cx, cl := data.Images(5, 4, 1, 8, 8, 3)
	prof := &calib.Profile{Version: calib.ProfileVersion}
	for _, c := range []struct {
		name   string
		net    *Network
		x      *tensor.Tensor
		labels []int
	}{
		{"mlp", MLPNet(11, 16, 24, 3, 3), mx, ml},
		{"conv", ConvNet(13, 8, 2, 3), cx, cl},
	} {
		np, err := Profile(c.name, c.net, c.x, c.labels, &nn.SGD{LR: 0.05}, 3, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if np.Net != c.name || np.Engine != "serial" || np.Layers != len(c.net.Layers) {
			t.Fatalf("%s: profile labelled %s/%s with %d layers", c.name, np.Net, np.Engine, np.Layers)
		}
		for _, s := range np.Ops {
			if s.Kind == "dO" && s.Layer == 1 {
				t.Fatalf("%s: the live profile has a δO_1 stat", c.name)
			}
		}
		prof.Nets = append(prof.Nets, np)
	}
	fitted, err := calib.Fit(prof)
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range []*models.CostTable{fitted, models.DefaultCostTable(models.V100Profile())} {
		acc, err := calib.Validate(prof, table)
		if err != nil {
			t.Fatalf("table %s: %v", table.Name, err)
		}
		if len(acc.PerNet) != 2 {
			t.Fatalf("table %s validated %d nets, want 2", table.Name, len(acc.PerNet))
		}
	}
}
