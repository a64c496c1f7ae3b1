package main

import (
	"fmt"
	"time"

	"oooback/internal/graph"
	"oooback/internal/nn"
	"oooback/internal/tensor"
	"oooback/internal/train"
)

// The traced pass of a train workload: a short untraced phase in which the
// engines also report their own step statistics and each block's mallocs
// are counted, then two more networks trained by the harness itself, one
// public call per span — forward, loss, backward (serial and out-of-order),
// optimizer — which is what Executor.Step does inside; then the tensor
// kernels at the workload's dominant shapes.

const (
	spanStep           = "train.step"
	spanZeroGrads      = "train.zero_grads"
	spanForward        = "train.forward"
	spanLoss           = "nn.loss"
	spanBackwardSerial = "train.backward_serial"
	spanBackwardOOO    = "train.backward_ooo"
	spanOptimizer      = "nn.optimizer"
)

// stepper trains one network step by step through the public calls a step
// is made of.
type stepper struct {
	name     string
	net      *train.Network
	exec     *train.Executor
	sched    graph.BackwardSchedule
	opt      nn.Optimizer
	backward string // span name of its backward call
	peakLive int
}

// step takes one training step, one span per call; rec == nil is the
// untraced twin.
func (s *stepper) step(rec *recorder, t int, b train.Batch) (time.Duration, error) {
	t0 := time.Now()
	root := rec.begin(spanStep, s.name, -1, t)
	call := func(name string, fn func()) {
		id := rec.begin(name, s.name, root, t)
		fn()
		rec.end(id)
	}
	var logits, grad *tensor.Tensor
	var stats train.BackwardStats
	var err error
	call(spanZeroGrads, s.net.ZeroGrads)
	call(spanForward, func() { logits = s.net.Forward(b.X) })
	call(spanLoss, func() { _, grad = nn.SoftmaxCrossEntropy(logits, b.Labels) })
	call(s.backward, func() { stats, err = s.exec.Backward(s.net, grad, s.sched) })
	call(spanOptimizer, func() { s.opt.Step(s.net.Params()) })
	rec.end(root)
	s.peakLive = max(s.peakLive, stats.PeakLiveGrads)
	return time.Since(t0), err
}

// traceTrain is the traced pass of a train workload.
func traceTrain(kind trainKind, env *trainEnv, o options) (*outcome, error) {
	phase := time.Duration(o.seconds * float64(time.Second) * 0.4)
	var gcBefore, gcAfter runtimeCounters
	gcBefore.read()
	out := &outcome{metrics: map[string]metric{}}
	set := func(name string, v float64, unit string) { out.metrics[name] = metric{v, unit} }

	env.measure(phase, true)
	if err := env.verify(out); err != nil {
		return nil, err
	}
	env.count(out)
	env.engineMetrics(set)
	set("host.probe_us", us(probeReference)/median(env.factors), "us")

	// The decomposed steps, in blocks like the engines' so each network runs
	// warm: even steps traced, odd steps their untraced twins.
	L := len(env.spec.build().Layers)
	serialExec, oooExec := train.NewExecutor(train.ExecSerial, 0), train.NewExecutor(train.ExecConcurrent, 0)
	defer serialExec.Close()
	defer oooExec.Close()
	steppers := []*stepper{
		{name: "serial", net: env.spec.build(), exec: serialExec, sched: graph.Conventional(L),
			opt: &nn.SGD{LR: learningRate}, backward: spanBackwardSerial},
		{name: "ooo", net: env.spec.build(), exec: oooExec, sched: graph.ReverseFirstK(L, L/2),
			opt: &nn.SGD{LR: learningRate}, backward: spanBackwardOOO},
	}
	set("process.rss_peak_mb", rssPeakMB(), "MB")
	rec := newRecorder()
	var tracedWall, twinWall durations
	taken, failed := 0, 0
	for start := time.Now(); time.Since(start) < phase; taken += env.spec.block {
		for _, s := range steppers {
			for t := taken; t < taken+env.spec.block; t++ {
				r := rec
				if t%2 == 1 {
					r = nil
				}
				wall, err := s.step(r, t, env.batch(t))
				if err != nil {
					failed++
				}
				if r != nil {
					tracedWall = append(tracedWall, wall)
				} else {
					twinWall = append(twinWall, wall)
				}
			}
		}
	}
	traced := &trainEnv{spec: env.spec, batches: env.batches, taken: taken}
	for _, s := range steppers {
		traced.engines = append(traced.engines, &engine{name: "traced " + s.name, net: s.net, ref: refSerial,
			steps: make(durations, taken)})
	}
	if err := traced.verify(out); err != nil {
		return nil, err
	}
	traced.engines[0].failed += failed
	traced.count(out)

	by := rec.byName()
	for name, metricName := range map[string]string{
		spanForward:        "train.forward_us",
		spanLoss:           "nn.loss_us",
		spanOptimizer:      "nn.optimizer_us",
		spanBackwardSerial: "train.backward_serial_us",
		spanBackwardOOO:    "train.backward_ooo_us",
	} {
		set(metricName, p50us(by, name), "us")
	}
	set("train.peak_live_grads", float64(steppers[1].peakLive), "count")
	// What a serial step spends outside its four calls: gradient zeroing and
	// the glue between the calls (and the spans' own cost, see
	// trace.overhead_share). Summed over the traced serial steps.
	var whole, parts time.Duration
	for _, sp := range rec.spans {
		if sp.lane != steppers[0].name {
			continue
		}
		switch sp.name {
		case spanStep:
			whole += sp.end - sp.start
		case spanForward, spanLoss, spanBackwardSerial, spanOptimizer:
			parts += sp.end - sp.start
		}
	}
	if whole > 0 {
		set("train.step_overhead_share", float64(whole-parts)/float64(whole), "ratio")
	}
	if twin := twinWall.quantile(0.5, us); twin > 0 {
		set("trace.overhead_share", (tracedWall.quantile(0.5, us)-twin)/twin, "ratio")
	}
	out.note("traced_samples", "%d traced steps, %d spans", len(tracedWall), len(rec.spans))
	out.note("self_time", "%s", selfTimeTable(rec))

	kernelMetrics(kind, phase/20, set)

	gcAfter.read()
	set("process.gc_cycles", float64(gcAfter.gcCycles-gcBefore.gcCycles), "count")
	set("process.gc_pause_ms", float64(gcAfter.gcPauseNs-gcBefore.gcPauseNs)/1e6, "ms")
	path, err := rec.writeChrome(o.outDir, o.workload)
	if err != nil {
		return nil, err
	}
	out.note("trace_file", "%s", path)
	return out, nil
}

// engineMetrics reports each engine's median step, its mallocs per step and
// the statistics the engines keep about their own steps.
func (e *trainEnv) engineMetrics(set func(string, float64, string)) {
	for _, en := range e.engines {
		set("train."+en.name+".step_ms", en.steps.quantile(0.5, ms), "ms")
		set("train."+en.name+".allocs_per_step", median(en.allocs), "count")
		switch en.name {
		case "dp2":
			var fwd, bwd, busy, exposed durations
			for _, st := range en.dp {
				fwd, bwd = append(fwd, st.Forward), append(bwd, st.Backward)
				busy, exposed = append(busy, st.ReduceBusy), append(exposed, st.ReduceExposed)
			}
			set("train.dp.forward_us", fwd.quantile(0.5, us), "us")
			set("train.dp.backward_us", bwd.quantile(0.5, us), "us")
			set("train.dp.reduce_busy_us", busy.quantile(0.5, us), "us")
			set("train.dp.reduce_exposed_us", exposed.quantile(0.5, us), "us")
			if len(en.dp) > 0 {
				set("train.dp.buckets", float64(en.dp[0].Buckets), "count")
			}
		case "pipe2x4":
			var exposed, filled durations
			var fill, occupancy []float64
			for _, st := range en.pipe {
				exposed, filled = append(exposed, st.exposed), append(filled, st.filled)
				fill, occupancy = append(fill, st.fillRatio), append(occupancy, st.occupancy)
			}
			set("train.pipe.bubble_exposed_us", exposed.quantile(0.5, us), "us")
			set("train.pipe.bubble_filled_us", filled.quantile(0.5, us), "us")
			set("train.pipe.fill_ratio", median(fill), "ratio")
			set("train.pipe.occupancy", median(occupancy), "ratio")
		case "recompute":
			set("train.recompute.recomputed_layers", float64(en.rec.RecomputedLayers), "count")
			set("train.recompute.peak_live_bytes", float64(en.rec.PeakLiveBytes), "B")
			set("train.recompute.checkpoint_bytes", float64(en.rec.CheckpointBytes), "B")
		}
	}
}

// kernelMetrics times the tensor kernels at the shapes that dominate the
// workload's step: the hidden Dense layer of the MLP, the second convolution
// of the conv net (whose im2col matrix is the largest operand of the step).
func kernelMetrics(kind trainKind, each time.Duration, set func(string, float64, string)) {
	rng := tensor.NewRNG(netSeed)
	timeKernel := func(name string, fn func()) {
		fn() // touch the operands once before timing
		var d durations
		for start := time.Now(); time.Since(start) < each; {
			t0 := time.Now()
			fn()
			d = append(d, time.Since(t0))
		}
		set(name, d.quantile(0.5, us), "us")
	}
	if kind == trainSmall {
		// x[32×96] through W[96×96]: forward, δO = g·Wᵀ, δW = xᵀ·g.
		x, w, g := tensor.Randn(rng, 1, batchSize, 96), tensor.Randn(rng, 1, 96, 96), tensor.Randn(rng, 1, batchSize, 96)
		y, dw := tensor.New(batchSize, 96), tensor.New(96, 96)
		timeKernel("tensor.matmul_us", func() { tensor.MatMulInto(y, x, w) })
		timeKernel("tensor.matmul_t_us", func() { tensor.MatMulTInto(y, g, w) })
		timeKernel("tensor.t_matmul_us", func() { tensor.TMatMulInto(dw, x, g) })
		return
	}
	// conv2 of ConvNet(16, 8): x[32,8,14,14], 16 filters of 8×3×3, 12×12 out.
	const filters, channels, in, k = 16, 8, 14, 3
	const out = in - k + 1
	x := tensor.Randn(rng, 1, batchSize, channels, in, in)
	wm := tensor.Randn(rng, 1, filters, channels*k*k)
	cols := tensor.New(batchSize*out*out, channels*k*k)
	rows := tensor.Randn(rng, 1, batchSize*out*out, filters)
	dcols, dx, dw := tensor.New(batchSize*out*out, channels*k*k), tensor.New(batchSize, channels, in, in), tensor.New(filters, channels*k*k)
	timeKernel("tensor.im2col_us", func() { tensor.Im2colInto(cols, x, k, k) })
	timeKernel("tensor.matmul_t_us", func() { tensor.MatMulTInto(rows, cols, wm) })
	timeKernel("tensor.matmul_us", func() { tensor.MatMulInto(dcols, rows, wm) })
	timeKernel("tensor.t_matmul_us", func() { tensor.TMatMulInto(dw, rows, cols) })
	timeKernel("tensor.col2im_us", func() { tensor.Col2imInto(dx, dcols, k, k) })
}

// selfTimeTable renders, per span name, count, total and self time: the
// table behind "which layer is the time in".
func selfTimeTable(rec *recorder) string {
	by := rec.byName()
	s := ""
	for _, name := range sortedKeys(by) {
		lt := by[name]
		s += fmt.Sprintf("\n    %-28s n=%-6d total=%10.3fms self=%10.3fms", name, lt.count, ms(lt.total), ms(lt.self))
	}
	return s
}
