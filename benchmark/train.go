package main

import (
	"fmt"
	"time"

	"oooback/internal/data"
	"oooback/internal/graph"
	"oooback/internal/nn"
	"oooback/internal/stats"
	"oooback/internal/tensor"
	"oooback/internal/train"
)

// The training-step path: five real CPU engines train identical copies of
// one network on one seeded batch stream, interleaved in short blocks, and
// every engine must end on exactly the parameters its serial reference ends
// on.

// trainKind selects one of the two train workloads.
type trainKind int

const (
	trainSmall trainKind = iota
	trainConv
)

const (
	// netSeed fixes the initial weights (the value every bench row and
	// differential suite of the repository uses); --seed drives the data.
	netSeed = 11
	// batchSize is the shape of every existing train measurement.
	batchSize = 32
	// batchPool is how many distinct batches a run cycles through.
	batchPool = 16
	// learningRate is the plain SGD step of every engine and reference.
	learningRate = 0.01
	// trainProbeWorkers is how many cores the host probe loads between
	// blocks: the two the data-parallel, pipeline and out-of-order engines
	// keep busy.
	trainProbeWorkers = 2
	// warmSteps is how many unmeasured steps every engine takes in set-up,
	// so retained buffers, worker pools and lane workspaces exist before
	// timing. The references take them too.
	warmSteps = 4
)

// trainSpec describes one train workload.
type trainSpec struct {
	build func() *train.Network
	data  func(seed uint64, n int) (*tensor.Tensor, []int)
	// block is how many consecutive steps one engine takes before the next
	// engine gets its turn: long enough that an engine runs warm, short
	// enough that a run of a few seconds holds many sweeps and any drift of
	// the host hits every engine alike.
	block int
}

var trainSpecs = map[trainKind]trainSpec{
	// ≈1 ms steps: dispatch, channel hand-offs, bucket countdown and reducer
	// wake-ups are a large share, kernels a small one.
	trainSmall: {
		build: func() *train.Network { return train.MLPNet(netSeed, 64, 96, 4, 4) },
		data:  func(seed uint64, n int) (*tensor.Tensor, []int) { return data.Vectors(seed, n, 64, 4) },
		block: 50,
	},
	// ≈8 ms steps bound by im2col/col2im/GEMM: engine overhead is noise.
	trainConv: {
		build: func() *train.Network { return train.ConvNet(netSeed, 16, 8, 10) },
		data:  func(seed uint64, n int) (*tensor.Tensor, []int) { return data.Images(seed, n, 1, 16, 16, 10) },
		block: 6,
	},
}

// engine is one way of taking a training step.
type engine struct {
	name  string
	net   *train.Network
	step  func(b train.Batch) error
	close func()
	// ref names the reference this engine must match bit for bit.
	ref string

	steps  durations
	failed int
	// normal holds the steps' times on an undisturbed host: each step's time
	// multiplied by its block's host factor (see host.go).
	normal durations
	// allocs holds, per measured block, the process-wide malloc count per
	// step (collected in the traced pass only).
	allocs []float64
	// Stats the engines report about their own steps (traced pass only).
	dp   []train.StepStats
	pipe []pipeSample
	rec  train.RecomputeStats
}

// pipeSample keeps the derived numbers of one pipeline step (PipeStepStats
// aliases engine storage, so the struct itself cannot be kept).
type pipeSample struct {
	exposed, filled time.Duration
	fillRatio       float64
	occupancy       float64
}

const (
	refSerial = "train.Step"
	refDP     = "DataParallel.ReferenceStep"
)

// trainEnv is one set-up of a train workload.
type trainEnv struct {
	spec    trainSpec
	batches []train.Batch
	engines []*engine
	// taken is how many steps every engine has taken so far.
	taken int
	// sweeps counts the measured sweeps: one block of steps on each engine in
	// turn.
	sweeps int
	// wall and normalWall are the measured blocks' total wall time, as
	// measured and on an undisturbed host; factors holds every block's host
	// factor.
	wall, normalWall time.Duration
	factors          []float64
	probes           hostProbes
	// keepStats makes the engines record their self-reported statistics.
	keepStats bool
}

func (e *trainEnv) close() {
	for _, en := range e.engines {
		en.close()
	}
}

// batch returns the batch of step t.
func (e *trainEnv) batch(t int) train.Batch { return e.batches[t%len(e.batches)] }

// setupTrain builds the seeded batch pool and the five engines, each on its
// own identically initialised network, and runs the warm-up steps.
func setupTrain(kind trainKind, seed uint64, keepStats bool) (*trainEnv, error) {
	spec := trainSpecs[kind]
	x, labels := spec.data(seed, batchSize*batchPool)
	e := &trainEnv{spec: spec, batches: train.Batches(x, labels, batchSize, seed), keepStats: keepStats,
		probes: newHostProbes(trainProbeWorkers)}
	L := len(spec.build().Layers)
	conventional := graph.Conventional(L)
	reverseK := graph.ReverseFirstK(L, L/2)
	sgd := func() nn.Optimizer { return &nn.SGD{LR: learningRate} }

	// The plain single-worker baseline: conventional order, serial engine.
	serial := &engine{name: "serial", net: spec.build(), ref: refSerial}
	serialExec, serialOpt := train.NewExecutor(train.ExecSerial, 0), sgd()
	serial.step = func(b train.Batch) error {
		_, err := serialExec.Step(serial.net, b.X, b.Labels, conventional, serialOpt)
		return err
	}
	serial.close = serialExec.Close
	e.engines = append(e.engines, serial)

	// Out-of-order backprop on one device: the δO chain on the caller, δW on
	// the worker pool, reverse first-k order.
	ooo := &engine{name: "ooo", net: spec.build(), ref: refSerial}
	oooExec, oooOpt := train.NewExecutor(train.ExecConcurrent, 0), sgd()
	ooo.step = func(b train.Batch) error {
		_, err := oooExec.Step(ooo.net, b.X, b.Labels, reverseK, oooOpt)
		return err
	}
	ooo.close = oooExec.Close
	e.engines = append(e.engines, ooo)

	// Data-parallel, two replicas, per-layer buckets drained by priority.
	dp, err := newDataParallel(spec, reverseK)
	if err != nil {
		e.close()
		return nil, err
	}
	dp2 := &engine{name: "dp2", net: dp.Net(), ref: refDP, close: dp.Close}
	dp2.step = func(b train.Batch) error {
		_, st, err := dp.Step(b.X, b.Labels)
		if e.keepStats {
			dp2.dp = append(dp2.dp, st)
		}
		return err
	}
	e.engines = append(e.engines, dp2)

	// Pipeline, two stages × four micro-batches, 1F1B with δW bubble fill.
	pipeNet := spec.build()
	pipe, err := train.NewPipeline(pipeNet, sgd(), train.PipelineConfig{
		Stages: 2, MicroBatches: 4, Schedule: train.Pipe1F1B, Build: spec.build,
	})
	if err != nil {
		e.close()
		return nil, fmt.Errorf("pipeline engine: %w", err)
	}
	pipe2x4 := &engine{name: "pipe2x4", net: pipeNet, ref: refSerial, close: pipe.Close}
	pipe2x4.step = func(b train.Batch) error {
		_, st, err := pipe.Step(b.X, b.Labels)
		if e.keepStats {
			pipe2x4.pipe = append(pipe2x4.pipe, pipeSample{
				exposed: st.BubbleExposed(), filled: st.BubbleFilled(),
				fillRatio: st.FillRatio(), occupancy: st.Occupancy(),
			})
		}
		return err
	}
	e.engines = append(e.engines, pipe2x4)

	// Activation checkpointing: keep every second activation, recompute the
	// rest in the backward pass.
	rec := &engine{name: "recompute", net: spec.build(), ref: refSerial}
	recExec, recOpt := train.NewExecutor(train.ExecSerial, 0), sgd()
	rec.step = func(b train.Batch) error {
		_, st, err := recExec.StepRecompute(rec.net, b.X, b.Labels, conventional, 2, recOpt)
		rec.rec = st
		return err
	}
	rec.close = recExec.Close
	e.engines = append(e.engines, rec)

	for _, en := range e.engines {
		for t := 0; t < warmSteps; t++ {
			if err := en.step(e.batch(t)); err != nil {
				e.close()
				return nil, fmt.Errorf("%s warm-up step %d: %w", en.name, t, err)
			}
		}
		en.dp, en.pipe = nil, nil
	}
	e.taken = warmSteps
	return e, nil
}

func newDataParallel(spec trainSpec, sched graph.BackwardSchedule) (*train.DataParallel, error) {
	dp, err := train.NewDataParallel(spec.build(), &nn.SGD{LR: learningRate}, train.DataParallelConfig{
		Replicas: 2, Build: spec.build, Schedule: sched,
		Sync: train.SyncLayerPriority, BucketBytes: -1,
	})
	if err != nil {
		return nil, fmt.Errorf("data-parallel engine: %w", err)
	}
	return dp, nil
}

// measure runs whole sweeps — every engine takes one block of steps on the
// same batches — until length has passed, timing each step on its own. The
// host probe runs between blocks; a block's host factor comes from the probes
// on either side of it. countAllocs additionally records each block's mallocs
// per step.
func (e *trainEnv) measure(length time.Duration, countAllocs bool) {
	type block struct {
		en    *engine
		first int
		wall  time.Duration
	}
	var blocks []block
	probes := []time.Duration{e.probes.measure()}
	for start := time.Now(); time.Since(start) < length; e.sweeps++ {
		for _, en := range e.engines {
			var before, after runtimeCounters
			if countAllocs {
				before.read()
			}
			b := block{en: en, first: len(en.steps)}
			blockStart := time.Now()
			for t := e.taken; t < e.taken+e.spec.block; t++ {
				batch := e.batch(t)
				t0 := time.Now()
				err := en.step(batch)
				en.steps = append(en.steps, time.Since(t0))
				if err != nil {
					en.failed++
				}
			}
			b.wall = time.Since(blockStart)
			if countAllocs {
				after.read()
				// Whole mallocs per step, as testing.AllocsPerRun counts
				// them: the division drops the few the harness adds per block.
				en.allocs = append(en.allocs, float64((after.mallocs-before.mallocs)/uint64(e.spec.block)))
			}
			blocks = append(blocks, b)
			probes = append(probes, e.probes.measure())
		}
		e.taken += e.spec.block
	}
	for i, factor := range hostFactors(probes) {
		b := blocks[i]
		for _, d := range b.en.steps[b.first : b.first+e.spec.block] {
			b.en.normal = append(b.en.normal, time.Duration(float64(d)*factor))
		}
		e.wall += b.wall
		e.normalWall += time.Duration(float64(b.wall) * factor)
		e.factors = append(e.factors, factor)
	}
}

// verify replays every step taken so far on the two serial references and
// compares final parameters bit for bit. The arithmetic of every engine is
// defined to equal its reference, so "the loss equals the parent's at every
// step" is checked at its strongest: equal weights after all steps. A
// mismatch fails every step of that engine.
func (e *trainEnv) verify(out *outcome) error {
	L := len(e.spec.build().Layers)
	conventional, reverseK := graph.Conventional(L), graph.ReverseFirstK(L, L/2)

	needDP := false
	for _, en := range e.engines {
		needDP = needDP || en.ref == refDP
	}
	serialNet, opt := e.spec.build(), &nn.SGD{LR: learningRate}
	want := map[string]map[string]*tensor.Tensor{}
	var dp *train.DataParallel
	if needDP {
		var err error
		if dp, err = newDataParallel(e.spec, reverseK); err != nil {
			return err
		}
		defer dp.Close()
	}
	for t := 0; t < e.taken; t++ {
		b := e.batch(t)
		if _, err := train.Step(serialNet, b.X, b.Labels, conventional, opt); err != nil {
			return fmt.Errorf("reference %s step %d: %w", refSerial, t, err)
		}
		if dp == nil {
			continue
		}
		if _, err := dp.ReferenceStep(b.X, b.Labels); err != nil {
			return fmt.Errorf("reference %s step %d: %w", refDP, t, err)
		}
	}
	want[refSerial] = train.ParamSnapshot(serialNet)
	if dp != nil {
		want[refDP] = train.ParamSnapshot(dp.Net())
	}
	for _, en := range e.engines {
		if !train.SnapshotsEqual(train.ParamSnapshot(en.net), want[en.ref]) {
			out.fail("%s: parameters after %d steps differ from %s", en.name, e.taken, en.ref)
			en.failed = len(en.steps)
		}
	}
	return nil
}

// runTrain runs one train workload in one pass. Like a plan run, an untraced
// run is cut into rounds that each build the engines afresh, measure for a
// third of the time, verify and tear down; the engines' step times are pooled
// over the rounds.
func runTrain(kind trainKind, o options) (*outcome, error) {
	if o.trace {
		env, err := setupTrain(kind, o.seed, true)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		defer env.close()
		return traceTrain(kind, env, o)
	}

	out := &outcome{}
	var pooled *trainEnv
	var setups []float64
	for r := 0; r < o.rounds; r++ {
		env, setup, err := timedSetup(newHostProbes(trainProbeWorkers), func() (*trainEnv, error) {
			return setupTrain(kind, o.seed, false)
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, setup)
		env.measure(time.Duration(o.seconds*float64(time.Second)/float64(o.rounds)), false)
		err = env.verify(out)
		env.close()
		if err != nil {
			return nil, err
		}
		env.count(out)
		if pooled == nil {
			pooled = env
			continue
		}
		pooled.sweeps += env.sweeps
		pooled.wall += env.wall
		pooled.normalWall += env.normalWall
		pooled.factors = append(pooled.factors, env.factors...)
		for i, en := range env.engines {
			pooled.engines[i].steps = append(pooled.engines[i].steps, en.steps...)
			pooled.engines[i].normal = append(pooled.engines[i].normal, en.normal...)
		}
	}
	out.metrics = pooled.endToEnd()
	out.metrics["setup_s"] = metric{median(setups), "s"}
	n := len(pooled.engines[0].steps)
	out.note("samples", "%d steps per engine in %d rounds and %d sweeps, %d beyond p95", n, o.rounds, pooled.sweeps, n/20)
	raw := pooled.rawEndToEnd()
	out.note("as_measured", "ops_per_s=%.6g p50_ms=%.6g p95_ms=%.6g at a median host factor of %.3f",
		raw["ops_per_s"].value, raw["p50_ms"].value, raw["p95_ms"].value, median(pooled.factors))
	return out, nil
}

// block returns the engine's step times of sweep sw.
func (en *engine) block(e *trainEnv, sw int) durations {
	return en.steps[sw*e.spec.block : (sw+1)*e.spec.block]
}

// count fills attempted and failed from the engines' step logs.
func (e *trainEnv) count(out *outcome) {
	for _, en := range e.engines {
		out.attempted += len(en.steps)
		out.failed += en.failed
		if en.failed > 0 {
			out.fail("%s: %d of %d steps failed", en.name, en.failed, len(en.steps))
		}
	}
}

// endToEnd computes the end-to-end metrics of a measured train phase on an
// undisturbed host (see host.go). A step's latency is reported per engine in
// the traced pass; here the five engines count alike: the median (and 95th
// percentile) step time is the mean of the five engines' own medians (95th
// percentiles), so a slowdown of any one engine moves it by that engine's
// share. Throughput is all steps over the blocks' wall time.
func (e *trainEnv) endToEnd() map[string]metric {
	out := e.stepMetrics(func(en *engine) durations { return en.normal }, e.normalWall)
	// The speedup over the baseline is taken sweep by sweep — the serial
	// block's median step over the engine's, blocks that ran within a quarter
	// of a second of each other and so under the same neighbours — and the
	// median sweep is reported: a ratio of two things measured together needs
	// no host factor.
	var gains []float64
	for _, en := range e.engines[1:] {
		ratios := make([]float64, e.sweeps)
		for sw := range ratios {
			ratios[sw] = e.engines[0].block(e, sw).quantile(0.5, ms) / en.block(e, sw).quantile(0.5, ms)
		}
		gains = append(gains, median(ratios))
	}
	out["speedup_geomean"] = metric{stats.GeoMean(gains), "ratio"}
	return out
}

// rawEndToEnd is endToEnd's timing metrics as the clock read them.
func (e *trainEnv) rawEndToEnd() map[string]metric {
	return e.stepMetrics(func(en *engine) durations { return en.steps }, e.wall)
}

func (e *trainEnv) stepMetrics(steps func(*engine) durations, wall time.Duration) map[string]metric {
	var p50s, p95s []float64
	n := 0
	for _, en := range e.engines {
		d := steps(en)
		p50s = append(p50s, d.quantile(0.50, ms))
		p95s = append(p95s, d.quantile(0.95, ms))
		n += len(d)
	}
	return map[string]metric{
		"ops_per_s": {float64(n) / wall.Seconds(), "1/s"},
		"p50_ms":    {stats.Mean(p50s), "ms"},
		"p95_ms":    {stats.Mean(p95s), "ms"},
	}
}
