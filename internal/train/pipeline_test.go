package train

import (
	"fmt"
	"runtime"
	"testing"

	"oooback/internal/data"

	"oooback/internal/graph"
	"oooback/internal/nn"
	"oooback/internal/tensor"
)

type pipeCase struct {
	name   string
	build  func() *Network
	x      *tensor.Tensor
	labels []int
}

// pipeCases returns MLP-, conv- and NLP-shaped differential cases. Batch
// sizes are deliberately not multiples of the microbatch counts below, so
// chunk boundaries land on uneven example splits.
func pipeCases() []pipeCase {
	mlpX, mlpY := data.Vectors(41, 9, 6, 4)
	convX, convY := data.Images(43, 9, 1, 8, 8, 3)
	tokX, tokY := TokenBatch(47, 9, 4, 13, 3)
	return []pipeCase{
		{"mlp", func() *Network { return MLPNet(31, 6, 10, 3, 4) }, mlpX, mlpY},
		{"conv", func() *Network { return ConvNet(33, 8, 2, 3) }, convX, convY},
		{"nlp", func() *Network { return TokenNet(37, 13, 6, 4, 8, 3) }, tokX, tokY},
	}
}

// TestPipelineMatchesSerialReference is the randomized differential suite:
// pipeline training must be bitwise identical — per-step losses, final
// gradients, final parameters — to the serial full-batch Network.Backward
// reference, across architectures × schedules × stage counts × fill on/off ×
// GOMAXPROCS. Run under -race this also exercises the cross-stage
// happens-before edges.
func TestPipelineMatchesSerialReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range pipeCases() {
			for _, sched := range []PipeSchedule{PipeGPipe, Pipe1F1B} {
				for _, stages := range []int{2, 3, 4} {
					for _, noFill := range []bool{false, true} {
						name := fmt.Sprintf("p%d/%s/%v/s%d/fill=%v", procs, c.name, sched, stages, !noFill)
						micro := stages + 1 // uneven example chunks
						checkPipelineAgainstStep(t, name, c, PipelineConfig{
							Stages: stages, MicroBatches: micro, Schedule: sched,
							Build: c.build, NoDWFill: noFill,
						})
					}
				}
			}
		}
	}
}

// TestPipelineFanOutMatchesSerialReference is the differential suite on the
// benchmark's pipe2x4 shape: ConvNet(11,16,8,10) at batch 32 over two stages
// of four micro-batches of 8. Stage 0 holds conv2, whose three kernels fan
// out over parallelRows at a micro-batch of 8 once GOMAXPROCS > 1, so here
// (unlike pipeCases' small nets) fanned-out chunks run inside a stage lane
// while the other lane polls for its next hand-off — under -race too.
func TestPipelineFanOutMatchesSerialReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	x, labels := data.Images(53, 32, 1, 16, 16, 10)
	c := pipeCase{"conv16", func() *Network { return ConvNet(11, 16, 8, 10) }, x, labels}
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, sched := range []PipeSchedule{PipeGPipe, Pipe1F1B} {
			for _, noFill := range []bool{false, true} {
				checkPipelineAgainstStep(t, fmt.Sprintf("p%d/%v/fill=%v", procs, sched, !noFill), c, PipelineConfig{
					Stages: 2, MicroBatches: 4, Schedule: sched, Build: c.build, NoDWFill: noFill,
				})
			}
		}
	}
}

// checkPipelineAgainstStep trains c for three steps on a pipeline built with
// cfg and on train.Step's serial full-batch reference, and fails unless every
// step's loss and the final gradients and parameters are bitwise identical,
// and the bubble-fill statistics agree with cfg.NoDWFill.
func checkPipelineAgainstStep(t *testing.T, name string, c pipeCase, cfg PipelineConfig) {
	t.Helper()
	const steps = 3
	noFill := cfg.NoDWFill
	pipe, err := NewPipeline(c.build(), &nn.SGD{LR: 0.05}, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer pipe.Close()
	ref := c.build()
	refSched := graph.Conventional(len(ref.Layers))
	refOpt := &nn.SGD{LR: 0.05}
	for s := 0; s < steps; s++ {
		pl, st, err := pipe.Step(c.x, c.labels)
		if err != nil {
			t.Fatalf("%s step %d: %v", name, s, err)
		}
		rl, err := Step(ref, c.x, c.labels, refSched, refOpt)
		if err != nil {
			t.Fatalf("%s step %d ref: %v", name, s, err)
		}
		if pl != rl {
			t.Fatalf("%s step %d: pipeline loss %v != reference %v", name, s, pl, rl)
		}
		if noFill && st.BubbleFilled() != 0 {
			t.Fatalf("%s: DWFill time with fill disabled", name)
		}
		if !noFill {
			var inline int64
			for _, ps := range st.PerStage {
				inline += int64(ps.DWInline)
			}
			if inline != 0 {
				t.Fatalf("%s: inline δW time with fill enabled", name)
			}
		}
		if r := st.FillRatio(); r < 0 || r > 1 {
			t.Fatalf("%s: fill ratio %v", name, r)
		}
	}
	if !SnapshotsEqual(GradSnapshot(pipe.proto), GradSnapshot(ref)) {
		t.Fatalf("%s: gradients differ from serial reference", name)
	}
	if !SnapshotsEqual(ParamSnapshot(pipe.proto), ParamSnapshot(ref)) {
		t.Fatalf("%s: parameters differ from serial reference", name)
	}
}

// TestPipelineSmallBatchFallback pins the short-final-batch path to the
// serial reference step.
func TestPipelineSmallBatchFallback(t *testing.T) {
	build := func() *Network { return MLPNet(31, 6, 10, 2, 4) }
	x, labels := data.Vectors(51, 3, 6, 4) // 3 examples < 4 microbatches
	pipe, err := NewPipeline(build(), &nn.SGD{LR: 0.05}, PipelineConfig{
		Stages: 2, MicroBatches: 4, Schedule: Pipe1F1B, Build: build,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	ref := build()
	refOpt := &nn.SGD{LR: 0.05}
	for s := 0; s < 2; s++ {
		pl, st, err := pipe.Step(x, labels)
		if err != nil {
			t.Fatal(err)
		}
		if st.Stages != 1 {
			t.Fatalf("fallback stats report %d stages", st.Stages)
		}
		rl, err := Step(ref, x, labels, graph.Conventional(len(ref.Layers)), refOpt)
		if err != nil {
			t.Fatal(err)
		}
		if pl != rl {
			t.Fatalf("step %d: fallback loss %v != reference %v", s, pl, rl)
		}
	}
	if !SnapshotsEqual(ParamSnapshot(pipe.proto), ParamSnapshot(ref)) {
		t.Fatal("fallback parameters differ from serial reference")
	}
}

// TestPipelineMixedBatchSizesViaFit drives the pipeline through fit with a
// batch size that leaves a short final batch, against a serial fit oracle.
func TestPipelineMixedBatchSizesViaFit(t *testing.T) {
	build := func() *Network { return MLPNet(61, 6, 8, 3, 3) }
	x, labels := data.Vectors(63, 23, 6, 3) // 23 = 3 batches of 8 + short 7... per size 8
	pipeNet, refNet := build(), build()
	pipe, err := NewPipeline(pipeNet, &nn.SGD{LR: 0.05}, PipelineConfig{
		Stages: 3, MicroBatches: 4, Schedule: PipeGPipe, Build: build,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	cfg := fitConfig{Epochs: 2, BatchSize: 8, Seed: 9}
	pipeLoss, err := fit(func(b Batch) (float64, error) {
		loss, _, err := pipe.Step(b.X, b.Labels)
		return loss, err
	}, x, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refOpt := &nn.SGD{LR: 0.05}
	refLoss, err := fit(func(b Batch) (float64, error) {
		return Step(refNet, b.X, b.Labels, graph.Conventional(len(refNet.Layers)), refOpt)
	}, x, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e := range refLoss {
		if pipeLoss[e] != refLoss[e] {
			t.Fatalf("epoch %d: pipeline loss %v != serial %v", e, pipeLoss[e], refLoss[e])
		}
	}
	if !SnapshotsEqual(ParamSnapshot(pipeNet), ParamSnapshot(refNet)) {
		t.Fatal("fit trajectories diverged")
	}
}

// TestPipelineConfigValidation covers the constructor's rejection paths.
func TestPipelineConfigValidation(t *testing.T) {
	build := func() *Network { return MLPNet(31, 6, 10, 2, 4) }
	opt := &nn.SGD{LR: 0.1}
	cases := []struct {
		name string
		net  *Network
		cfg  PipelineConfig
	}{
		{"one stage", build(), PipelineConfig{Stages: 1, Build: build}},
		{"micro<stages", build(), PipelineConfig{Stages: 3, MicroBatches: 2, Build: build}},
		{"stages>layers", build(), PipelineConfig{Stages: 6, Build: build}},
		{"no build", build(), PipelineConfig{Stages: 2}},
		{"partition stage count", build(), PipelineConfig{Stages: 3, Build: build,
			Partition: graph.Partition{L: 5, Bounds: []int{0, 2, 5}}}},
		{"partition layer count", build(), PipelineConfig{Stages: 2, Build: build,
			Partition: graph.Partition{L: 6, Bounds: []int{0, 2, 6}}}},
		{"partition order", build(), PipelineConfig{Stages: 3, Build: build,
			Partition: graph.Partition{L: 5, Bounds: []int{0, 4, 2, 5}}}},
		{"partition no bounds", build(), PipelineConfig{Stages: 2, Build: build,
			Partition: graph.Partition{L: 5}}},
	}
	for _, c := range cases {
		if _, err := NewPipeline(c.net, opt, c.cfg); err == nil {
			t.Fatalf("%s: expected error", c.name)
		}
	}
	if _, err := NewPipeline(build(), nil, PipelineConfig{Stages: 2, Build: build}); err == nil {
		t.Fatal("nil optimizer: expected error")
	}
}

// TestPipelineExplicitBoundaries runs a deliberately unbalanced explicit
// partition and still demands bitwise identity.
func TestPipelineExplicitBoundaries(t *testing.T) {
	build := func() *Network { return MLPNet(71, 6, 10, 3, 4) } // L=7
	x, labels := data.Vectors(73, 8, 6, 4)
	pipe, err := NewPipeline(build(), &nn.SGD{LR: 0.05}, PipelineConfig{
		Stages: 3, MicroBatches: 4, Schedule: Pipe1F1B, Build: build,
		Partition: graph.Partition{L: 7, Bounds: []int{0, 1, 6, 7}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	if lo, hi := pipe.Partition().Range(1); lo != 1 || hi != 6 {
		t.Fatalf("stage 1 = [%d,%d)", lo, hi)
	}
	ref := build()
	refOpt := &nn.SGD{LR: 0.05}
	pl, _, err := pipe.Step(x, labels)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Step(ref, x, labels, graph.Conventional(7), refOpt)
	if err != nil {
		t.Fatal(err)
	}
	if pl != rl || !SnapshotsEqual(GradSnapshot(pipe.proto), GradSnapshot(ref)) {
		t.Fatal("explicit-partition pipeline differs from serial reference")
	}
}

// TestPipelineStatsAccounting sanity-checks the bubble decomposition on a
// real step: busy components non-negative, occupancy in (0, 1], and the
// schedule/fill configuration echoed back.
func TestPipelineStatsAccounting(t *testing.T) {
	build := func() *Network { return MLPNet(81, 16, 32, 3, 4) }
	x, labels := data.Vectors(83, 16, 16, 4)
	for _, noFill := range []bool{false, true} {
		pipe, err := NewPipeline(build(), &nn.SGD{LR: 0.05}, PipelineConfig{
			Stages: 3, MicroBatches: 4, Schedule: PipeGPipe, Build: build, NoDWFill: noFill,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := pipe.Step(x, labels)
		if err != nil {
			t.Fatal(err)
		}
		if st.Stages != 3 || st.MicroBatches != 4 || st.Schedule != PipeGPipe || st.FillDW == noFill {
			t.Fatalf("stats config echo wrong: %+v", st)
		}
		if st.Wall <= 0 {
			t.Fatal("non-positive wall time")
		}
		if occ := st.Occupancy(); occ <= 0 || occ > 1.000001 {
			t.Fatalf("occupancy %v outside (0,1]", occ)
		}
		var fwd, dw int64
		for _, ps := range st.PerStage {
			fwd += int64(ps.Fwd)
			dw += int64(ps.DWInline) + int64(ps.DWFill)
		}
		if fwd <= 0 {
			t.Fatal("no forward time recorded")
		}
		if dw <= 0 {
			t.Fatal("no δW time recorded")
		}
		pipe.Close()
	}
}
