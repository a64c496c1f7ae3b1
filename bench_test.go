// Package oooback's root benchmark harness: one benchmark per paper table /
// figure (regenerating it end to end on the simulators), plus micro-benchmarks
// of the scheduling algorithms and substrates.
//
// Run with: go test -bench=. -benchmem
package oooback

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"oooback/internal/calib"
	"oooback/internal/core"
	"oooback/internal/data"
	"oooback/internal/datapar"
	"oooback/internal/experiments"
	"oooback/internal/gpusim"
	"oooback/internal/graph"
	"oooback/internal/models"
	"oooback/internal/netsim"
	"oooback/internal/nn"
	"oooback/internal/pipepar"
	"oooback/internal/plansearch"
	"oooback/internal/plansvc"
	"oooback/internal/plansvc/warmcache"
	"oooback/internal/shardsvc"
	"oooback/internal/sim"
	"oooback/internal/singlegpu"
	"oooback/internal/tensor"
	"oooback/internal/train"
)

// benchExperiment wraps a registered experiment as a benchmark.
func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.Get(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	var out string
	for i := 0; i < b.N; i++ {
		out = e.Run()
	}
	if len(out) == 0 {
		b.Fatal("empty report")
	}
}

// One benchmark per table/figure of the paper's evaluation.
func BenchmarkFig1KernelIssueOverhead(b *testing.B)  { benchExperiment(b, "fig1") }
func BenchmarkFig2IssueTimeline(b *testing.B)        { benchExperiment(b, "fig2") }
func BenchmarkFig4DataParallelTimeline(b *testing.B) { benchExperiment(b, "fig4") }
func BenchmarkFig5CrossLayerMP(b *testing.B)         { benchExperiment(b, "fig5") }
func BenchmarkFig6MicroBatchPipeline(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7SingleGPU(b *testing.B)            { benchExperiment(b, "fig7") }
func BenchmarkFig8TwoStreamSchedule(b *testing.B)    { benchExperiment(b, "fig8") }
func BenchmarkFig9MemoryProfile(b *testing.B)        { benchExperiment(b, "fig9") }
func BenchmarkFig10DataParallel(b *testing.B)        { benchExperiment(b, "fig10") }
func BenchmarkFig11aFineTuning(b *testing.B)         { benchExperiment(b, "fig11a") }
func BenchmarkFig11bInterconnects(b *testing.B)      { benchExperiment(b, "fig11b") }
func BenchmarkFig12PipelineTimeline(b *testing.B)    { benchExperiment(b, "fig12") }
func BenchmarkFig13aWeakScaling(b *testing.B)        { benchExperiment(b, "fig13a") }
func BenchmarkFig13bStrongScaling(b *testing.B)      { benchExperiment(b, "fig13b") }
func BenchmarkMemSingleGPU(b *testing.B)             { benchExperiment(b, "mem-single") }
func BenchmarkDiscussionDataParallel(b *testing.B)   { benchExperiment(b, "disc-datapar") }
func BenchmarkSemanticsCheck(b *testing.B)           { benchExperiment(b, "semantics") }

// Ablations of the design choices DESIGN.md calls out, plus the extra
// §8.4.2 baselines (DAPPLE, Megatron-style interleaving).
func BenchmarkBaselinesPipeline(b *testing.B)         { benchExperiment(b, "baselines-pipe") }
func BenchmarkAblationRegionGranularity(b *testing.B) { benchExperiment(b, "ablation-regions") }
func BenchmarkAblationKSweep(b *testing.B)            { benchExperiment(b, "ablation-ksweep") }
func BenchmarkAblationModuloGranularity(b *testing.B) { benchExperiment(b, "ablation-modulo") }
func BenchmarkAblationStaleness(b *testing.B)         { benchExperiment(b, "ablation-staleness") }
func BenchmarkHybridCombinedScheduling(b *testing.B)  { benchExperiment(b, "hybrid") }
func BenchmarkRecomputeCompat(b *testing.B)           { benchExperiment(b, "recompute") }
func BenchmarkSec7MultiStreamMemory(b *testing.B)     { benchExperiment(b, "sec7-memory") }
func BenchmarkBFCFragmentation(b *testing.B)          { benchExperiment(b, "bfc-fragmentation") }
func BenchmarkCrossValidation(b *testing.B)           { benchExperiment(b, "crossval") }
func BenchmarkOptimizerTrend(b *testing.B)            { benchExperiment(b, "optimizers") }
func BenchmarkXLAFusionPass(b *testing.B)             { benchExperiment(b, "xla-fusion") }
func BenchmarkExtBidirectional(b *testing.B)          { benchExperiment(b, "ext-bidirectional") }
func BenchmarkMemPipeline(b *testing.B)               { benchExperiment(b, "mem-pipeline") }
func BenchmarkAblationBucketing(b *testing.B)         { benchExperiment(b, "ablation-bucketing") }
func BenchmarkHybridSingleData(b *testing.B)          { benchExperiment(b, "hybrid-single-data") }

// Micro-benchmarks of the core scheduling algorithms.

func BenchmarkReverseFirstK(b *testing.B) {
	m := models.ResNet(models.V100Profile(), 101, 64, models.ImageNet)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ReverseFirstK(m, 40, 16<<30)
	}
}

func BenchmarkMemSchedule(b *testing.B) {
	m := models.ResNet(models.V100Profile(), 101, 64, models.ImageNet)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.MemSchedule(m)
	}
}

// paretoBenchSpace is the ResNet-50 single-discipline space of the memory-axis
// benchmark and its allocation contract.
func paretoBenchSpace() plansearch.Space {
	m := models.ResNet(models.V100Profile(), 50, 128, models.ImageNet)
	return plansearch.Space{
		Model: m,
		Costs: datapar.Costs(m, datapar.PubA(), 16, datapar.OOOBytePS),
		Disciplines: []plansearch.Discipline{{
			Name:       datapar.OOOBytePS.String(),
			Prio:       func(layer int) int { return layer },
			Preemptive: true,
		}},
	}
}

func BenchmarkParetoSweep(b *testing.B) {
	sp := paretoBenchSpace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plansearch.ParetoSweep(sp, plansearch.Config{})
	}
}

func BenchmarkSearchK(b *testing.B) {
	m := models.ResNet(models.V100Profile(), 50, 128, models.ImageNet)
	c := datapar.Costs(m, datapar.PubA(), 16, datapar.BytePS)
	prio := func(l int) int { return l }
	L := len(m.Layers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SearchK(L, func(k int) float64 {
			r := core.SimulateIteration(c, core.ReverseFirstK(m, k, 0), prio, true)
			return core.Throughput(r.Makespan, m.Batch)
		})
	}
}

func BenchmarkMultiRegionJoint(b *testing.B) {
	m := models.DenseNet(models.V100Profile(), 121, 32, 64, models.ImageNet)
	gpu := gpusim.V100()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		singlegpu.Run(m, singlegpu.OOOXLA(), gpu)
	}
}

func BenchmarkListSchedule(b *testing.B) {
	m := models.ResNet(models.V100Profile(), 50, 64, models.ImageNet)
	c := datapar.Costs(m, datapar.PubA(), 16, datapar.BytePS)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ListSchedule(c)
	}
}

func BenchmarkSimulateIteration(b *testing.B) {
	m := models.ResNet(models.V100Profile(), 152, 64, models.ImageNet)
	c := datapar.Costs(m, datapar.PubA(), 32, datapar.BytePS)
	order := graph.Conventional(len(m.Layers))
	prio := func(l int) int { return l }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SimulateIteration(c, order, prio, true)
	}
}

// Micro-benchmarks of the substrates.

func BenchmarkSimEngine(b *testing.B) {
	eng := sim.New()
	for i := 0; i < b.N; i++ {
		eng.Reset()
		for j := 0; j < 1000; j++ {
			eng.Schedule(sim.Time(j), func() {})
		}
		eng.Run()
	}
}

// BenchmarkSimEngineFresh is the cold-start variant: a new engine per run
// (the pre-Reset usage pattern), paying the arena growth each time.
func BenchmarkSimEngineFresh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.New()
		for j := 0; j < 1000; j++ {
			eng.Schedule(sim.Time(j), func() {})
		}
		eng.Run()
	}
}

func BenchmarkGPUSimDenseNetIteration(b *testing.B) {
	m := models.DenseNet(models.V100Profile(), 121, 12, 32, models.CIFAR100)
	gpu := gpusim.V100()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		singlegpu.Run(m, singlegpu.XLA(), gpu)
	}
}

func BenchmarkPipelineBERT48(b *testing.B) {
	m := models.VocabParallelHead(models.BERT(models.V100Profile(), 48, 128, 512), 32)
	cfg := pipepar.Config{
		GPUs: 32, MicroBatches: 32, Alloc: core.ModuloAllocation(len(m.Layers), 32, 1),
		FastForward: true, Schedule: pipepar.GPipe, Link: netsim.NVLink(), Iterations: 3,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipepar.Run(m, cfg)
	}
}

func BenchmarkLinkPriorityTransfers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.New()
		l := netsim.NewLink(eng, netsim.Ethernet10G())
		for j := 0; j < 50; j++ {
			l.Transfer("t", 4<<20, j%5, nil)
		}
		eng.Run()
	}
}

func BenchmarkTensorMatMul(b *testing.B) {
	rng := tensor.NewRNG(1)
	x := tensor.Randn(rng, 1, 128, 128)
	y := tensor.Randn(rng, 1, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
	}
}

func BenchmarkTensorConv2D(b *testing.B) {
	rng := tensor.NewRNG(1)
	x := tensor.Randn(rng, 1, 8, 8, 16, 16)
	w := tensor.Randn(rng, 1, 16, 8, 3, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2D(x, w)
	}
}

// TensorKernel micro-benchmarks: the fused-transpose GEMMs and the pooled
// conv lowerings that carry the real training hot path. The Into forms run on
// a warm workspace, so steady state is allocation-free (asserted by
// TestAllocsTensorKernelsWarm below).

func BenchmarkTensorKernelMatMulT(b *testing.B) {
	rng := tensor.NewRNG(1)
	x := tensor.Randn(rng, 1, 128, 128)
	y := tensor.Randn(rng, 1, 128, 128)
	dst := tensor.New(128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulTInto(dst, x, y)
	}
}

func BenchmarkTensorKernelTMatMul(b *testing.B) {
	rng := tensor.NewRNG(1)
	x := tensor.Randn(rng, 1, 128, 128)
	y := tensor.Randn(rng, 1, 128, 128)
	dst := tensor.New(128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.TMatMulInto(dst, x, y)
	}
}

func BenchmarkTensorKernelIm2col(b *testing.B) {
	rng := tensor.NewRNG(1)
	x := tensor.Randn(rng, 1, 8, 8, 16, 16)
	dst := tensor.New(8*14*14, 8*3*3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Im2colInto(dst, x, 3, 3)
	}
}

// TestAllocsTensorKernelsWarm pins the zero-alloc contract of the pooled
// kernel layer: fused GEMMs, conv lowerings and repacks into workspace
// buffers never touch the allocator once the workspace is warm.
func TestAllocsTensorKernelsWarm(t *testing.T) {
	rng := tensor.NewRNG(1)
	a := tensor.Randn(rng, 1, 64, 48)
	bb := tensor.Randn(rng, 1, 64, 48)
	x := tensor.Randn(rng, 1, 2, 3, 12, 12)
	g := tensor.Randn(rng, 1, 2, 5, 10, 10)
	ws := tensor.NewWorkspace()
	run := func() {
		mm := ws.Get(64, 64)
		tensor.MatMulTInto(mm, a, bb) // a·bᵀ
		tm := ws.Get(48, 48)
		tensor.TMatMulInto(tm, a, bb) // aᵀ·b
		cols := ws.Get(2*10*10, 3*3*3)
		tensor.Im2colInto(cols, x, 3, 3)
		im := ws.Get(2, 3, 12, 12)
		tensor.Col2imInto(im, cols, 3, 3)
		rows := ws.Get(2*10*10, 5)
		tensor.RowsFromNCHWInto(rows, g)
		tensor.NCHWFromRowsInto(g, rows)
		ws.Put(rows)
		ws.Put(im)
		ws.Put(cols)
		ws.Put(tm)
		ws.Put(mm)
	}
	run() // warm the workspace bins
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("warm tensor kernels allocate %v times per run, want 0", n)
	}
}

// TestAllocsTrainBackwardWarm: a warm backward pass through the pooled
// serial executor — the BenchmarkTrainBackward serial hot loop — performs
// zero allocations end to end.
func TestAllocsTrainBackwardWarm(t *testing.T) {
	net := train.MLPNet(11, 64, 96, 4, 4)
	L := len(net.Layers)
	x, labels := data.Vectors(3, 32, 64, 4)
	logits := net.Forward(x)
	_, lossGrad := nn.SoftmaxCrossEntropy(logits, labels)
	exec := train.NewExecutor(train.ExecSerial, 0)
	sched := graph.ReverseFirstK(L, L)
	run := func() {
		if _, err := exec.Backward(net, lossGrad, sched); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm retained layer buffers and the chain workspace
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("warm serial backward allocates %v times per run, want 0", n)
	}
}

func BenchmarkMemoryProfile(b *testing.B) {
	m := models.DenseNet(models.V100Profile(), 169, 32, 64, models.ImageNet)
	s := graph.Conventional(len(m.Layers))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.MemoryProfile(m, s)
	}
}

// BenchmarkPlanService drives the schedule-planning HTTP service with the
// deterministic closed-loop load generator (the full zoo × 3 GPU counts) and
// reports service-level throughput. The BENCH files track the ops/s metric.
func BenchmarkPlanService(b *testing.B) {
	svc := plansvc.New(plansvc.Options{
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	srv := httptest.NewServer(svc.Handler())
	b.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	b.ResetTimer()
	rep, err := plansvc.RunLoad(plansvc.LoadSpec{BaseURL: srv.URL, Clients: 4, Requests: b.N})
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if rep.TransportErrors > 0 || rep.StatusCounts["200"] != b.N {
		b.Fatalf("load run failed: %+v", rep)
	}
	b.ReportMetric(rep.OpsPerSec, "ops/s")
	b.ReportMetric(rep.LatencyMsP95, "p95-ms")
}

// benchPlanColdMiss measures one full cold plan computation — normalize,
// fingerprint, queue, k search, encode — under the given search strategy.
// Each iteration perturbs max_memory_bytes by +i so every request misses the
// cache (1<<40 dwarfs any real activation footprint, so the clamp never binds
// and the planning work is identical across misses). The probes/op metric is
// the number of simulator probes the k search issued; BENCH files track the
// exact-vs-guided ratio.
func benchPlanColdMiss(b *testing.B, search string) {
	svc := plansvc.New(plansvc.Options{
		Workers:       1,
		SearchWorkers: 1,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	b.Cleanup(svc.Close)
	ctx := context.Background()
	var probes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := svc.Plan(ctx, &plansvc.PlanRequest{
			Model:          "resnet152",
			Cluster:        plansvc.ClusterSpec{Preset: "pub-a", GPUs: 32},
			Search:         search,
			MaxMemoryBytes: 1<<40 + int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if resp.SearchStats == nil {
			b.Fatal("missing search stats")
		}
		probes += int64(resp.SearchStats.Probes)
	}
	b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
}

func BenchmarkPlanColdMissExact(b *testing.B)  { benchPlanColdMiss(b, plansvc.SearchExact) }
func BenchmarkPlanColdMissGuided(b *testing.B) { benchPlanColdMiss(b, plansvc.SearchGuided) }

// BenchmarkShardLoadgen drives the closed loop against an in-process 3-shard
// tier — the sharded sibling of BenchmarkPlanServiceLoadgen. The gap between
// the two p99s is the routing/proxy overhead of the tier (acceptance bar:
// within 2×).
func BenchmarkShardLoadgen(b *testing.B) {
	tier, err := shardsvc.StartTier(shardsvc.TierOptions{
		Shards: 3,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(tier.Close)
	b.ResetTimer()
	rep, err := plansvc.RunLoad(plansvc.LoadSpec{BaseURLs: tier.URLs(), Clients: 4, Requests: b.N})
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if rep.TransportErrors > 0 || rep.StatusCounts["200"] != b.N {
		b.Fatalf("tier load run failed: %+v", rep)
	}
	b.ReportMetric(rep.OpsPerSec, "ops/s")
	b.ReportMetric(rep.LatencyMsP99, "p99-ms")
}

// BenchmarkPlanBatch measures the steady-state batch path: 16 items (8
// distinct specs, each duplicated) answered from the LRU in one PlanBatch
// call — dedup, singleflight probing, and fan-out, without planner work.
func BenchmarkPlanBatch(b *testing.B) {
	svc := plansvc.New(plansvc.Options{
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	b.Cleanup(svc.Close)
	var req plansvc.BatchRequest
	for i := 0; i < 8; i++ {
		pr := plansvc.PlanRequest{
			Model:   "resnet50",
			Cluster: plansvc.ClusterSpec{Preset: "pub-a", GPUs: 2 + i},
		}
		req.Requests = append(req.Requests, pr, pr)
	}
	ctx := context.Background()
	if _, err := svc.PlanBatch(ctx, &req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.PlanBatch(ctx, &req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmRestart prices a warm restart: a fresh service over a
// populated warm-start cache serves its first request from disk — worker-pool
// spin-up plus the segment-indexed lookup, zero planner probes.
func BenchmarkWarmRestart(b *testing.B) {
	wc, err := warmcache.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { wc.Close() })
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	ctx := context.Background()
	req := &plansvc.PlanRequest{
		Model:   "resnet50",
		Cluster: plansvc.ClusterSpec{Preset: "pub-a", GPUs: 16},
	}
	seed := plansvc.New(plansvc.Options{Logger: quiet, WarmCache: wc})
	if _, err := seed.Plan(ctx, req); err != nil {
		b.Fatal(err)
	}
	seed.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc := plansvc.New(plansvc.Options{Logger: quiet, WarmCache: wc})
		if _, err := svc.Plan(ctx, req); err != nil {
			b.Fatal(err)
		}
		svc.Close()
	}
}

// BenchmarkTrainBackward measures real (CPU) backward passes: serial walk vs
// concurrent executor × conventional vs reverse-first-k schedules, on the
// same MLP the differential suite uses. On multi-core hosts the concurrent
// rows run the δW ops on the worker pool while the δO chain proceeds.
func BenchmarkTrainBackward(b *testing.B) {
	net := train.MLPNet(11, 64, 96, 4, 4)
	L := len(net.Layers)
	x, labels := data.Vectors(3, 32, 64, 4)
	logits := net.Forward(x)
	_, lossGrad := nn.SoftmaxCrossEntropy(logits, labels)
	for _, mode := range []train.ExecMode{train.ExecSerial, train.ExecConcurrent} {
		for _, sc := range []struct {
			name  string
			sched graph.BackwardSchedule
		}{
			{"conventional", graph.Conventional(L)},
			{"reverse-first-k", graph.ReverseFirstK(L, L)},
		} {
			b.Run(mode.String()+"/"+sc.name, func(b *testing.B) {
				// Both modes run through an Executor so they use the pooled
				// zero-alloc engines; a nil executor would fall back to the
				// naive allocating Network.Backward reference.
				exec := train.NewExecutor(mode, 0)
				b.Cleanup(exec.Close)
				if _, err := exec.Backward(net, lossGrad, sc.sched); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := exec.Backward(net, lossGrad, sc.sched); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTrainDataParallel measures full data-parallel training steps —
// sharded forward, concurrent out-of-order backward, overlapped bucket
// reduction, optimizer update — at 1/2/4 replicas. Custom metrics decompose
// the reduction cost: reduce-busy-ns is total time inside bucket reductions,
// reduce-exposed-ns the part that ran after the last replica's backward
// finished. Overlap shows as exposed < busy; on a single-core host the
// phases serialize and parity is expected.
func BenchmarkTrainDataParallel(b *testing.B) {
	x, labels := data.Vectors(3, 32, 64, 4)
	build := func() *train.Network { return train.MLPNet(11, 64, 96, 4, 4) }
	L := len(build().Layers)
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("replicas=%d", n), func(b *testing.B) {
			dp, err := train.NewDataParallel(build(), &nn.SGD{LR: 0.01}, train.DataParallelConfig{
				Replicas: n, Build: build,
				Schedule: graph.ReverseFirstK(L, L/2), Sync: train.SyncLayerPriority,
				BucketBytes: -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(dp.Close)
			if _, _, err := dp.Step(x, labels); err != nil { // warm buffers and caches
				b.Fatal(err)
			}
			var busy, exposed time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := dp.Step(x, labels)
				if err != nil {
					b.Fatal(err)
				}
				busy += st.ReduceBusy
				exposed += st.ReduceExposed
			}
			b.ReportMetric(float64(busy.Nanoseconds())/float64(b.N), "reduce-busy-ns/op")
			b.ReportMetric(float64(exposed.Nanoseconds())/float64(b.N), "reduce-exposed-ns/op")
		})
	}
}

// BenchmarkTrainPipeline measures full microbatch pipeline-parallel training
// steps — sharded microbatch forwards, staged δO chain, out-of-order δW
// bubble filling, optimizer update — across both disciplines with filling on
// and off. Custom metrics decompose the bubble: bubble-exposed-ns is stage
// time blocked with nothing to run, bubble-filled-ns is stage time spent on
// deferred δW inside bubbles. Filling shows as exposed(fill) <
// exposed(nofill); on a single-core host the stages serialize and parity is
// expected.
func BenchmarkTrainPipeline(b *testing.B) {
	x, labels := data.Vectors(3, 32, 64, 4)
	build := func() *train.Network { return train.MLPNet(11, 64, 96, 4, 4) }
	for _, sched := range []train.PipeSchedule{train.PipeGPipe, train.Pipe1F1B} {
		for _, fill := range []bool{true, false} {
			name := fmt.Sprintf("%v/fill=%v", sched, fill)
			b.Run(name, func(b *testing.B) {
				pipe, err := train.NewPipeline(build(), &nn.SGD{LR: 0.01}, train.PipelineConfig{
					Stages: 3, MicroBatches: 4, Schedule: sched, Build: build, NoDWFill: !fill,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(pipe.Close)
				if _, _, err := pipe.Step(x, labels); err != nil { // warm buffers and lanes
					b.Fatal(err)
				}
				var exposed, filled time.Duration
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, st, err := pipe.Step(x, labels)
					if err != nil {
						b.Fatal(err)
					}
					exposed += st.BubbleExposed()
					filled += st.BubbleFilled()
				}
				b.ReportMetric(float64(exposed.Nanoseconds())/float64(b.N), "bubble-exposed-ns/op")
				b.ReportMetric(float64(filled.Nanoseconds())/float64(b.N), "bubble-filled-ns/op")
			})
		}
	}
}

// TestAllocsTrainPipelineStepWarm: a warm pipeline step — microbatch shard,
// staged forwards, chunked δW accumulation, bubble filling, SGD update —
// performs zero allocations end to end.
func TestAllocsTrainPipelineStepWarm(t *testing.T) {
	x, labels := data.Vectors(3, 32, 64, 4)
	build := func() *train.Network { return train.MLPNet(11, 64, 96, 4, 4) }
	pipe, err := train.NewPipeline(build(), &nn.SGD{LR: 0.01}, train.PipelineConfig{
		Stages: 3, MicroBatches: 4, Schedule: train.Pipe1F1B, Build: build,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pipe.Close)
	run := func() {
		if _, _, err := pipe.Step(x, labels); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm retained activations, workspaces and shard views
	run()
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("warm pipeline step allocates %v times per run, want 0", n)
	}
}

var sinkDuration time.Duration

func BenchmarkPSSyncTime(b *testing.B) {
	spec := netsim.Ethernet10G()
	for i := 0; i < b.N; i++ {
		sinkDuration = netsim.PSSyncTime(spec, 100<<20, 48, 4)
	}
}

// Allocation-count assertions on the three hot paths. These pin the
// perf contract of the pooled event heap and the scratch-buffer probes:
// after warm-up, the steady state allocates nothing.

// TestAllocsSimEngineWarm: Reset + 1000 Schedule + Run on a warm engine
// recycles pooled slots and never touches the allocator.
func TestAllocsSimEngineWarm(t *testing.T) {
	eng := sim.New()
	run := func() {
		eng.Reset()
		for j := 0; j < 1000; j++ {
			eng.Schedule(sim.Time(j), func() {})
		}
		eng.Run()
	}
	run() // warm up: grow the arena once
	if n := testing.AllocsPerRun(50, run); n != 0 {
		t.Fatalf("warm engine run allocates %v times per run, want 0", n)
	}
}

// TestAllocsSimulateIterationWarm: an IterScratch probe allocates nothing
// once its buffers are sized (the SearchK / ablation-sweep inner loop).
func TestAllocsSimulateIterationWarm(t *testing.T) {
	m := models.ResNet(models.V100Profile(), 152, 64, models.ImageNet)
	c := datapar.Costs(m, datapar.PubA(), 32, datapar.BytePS)
	order := graph.Conventional(len(m.Layers))
	prio := func(l int) int { return l }
	var s core.IterScratch
	s.SimulateIteration(c, order, prio, true)
	if n := testing.AllocsPerRun(50, func() { s.SimulateIteration(c, order, prio, true) }); n != 0 {
		t.Fatalf("warm SimulateIteration allocates %v times per run, want 0", n)
	}
}

// TestAllocsSimulateIterationOverlappedWarm: the overlapped-update variant
// shares the contract (it adds one more scratch buffer, adjDW).
func TestAllocsSimulateIterationOverlappedWarm(t *testing.T) {
	m := models.ResNet(models.V100Profile(), 152, 64, models.ImageNet)
	c := datapar.Costs(m, datapar.PubA(), 32, datapar.BytePS)
	order := graph.Conventional(len(m.Layers))
	prio := func(l int) int { return l }
	overlapped := func(layer int) bool { return layer%2 == 0 }
	var s core.IterScratch
	s.SimulateIterationOverlapped(c, order, prio, true, overlapped)
	if n := testing.AllocsPerRun(50, func() { s.SimulateIterationOverlapped(c, order, prio, true, overlapped) }); n != 0 {
		t.Fatalf("warm SimulateIterationOverlapped allocates %v times per run, want 0", n)
	}
}

// TestAllocsMemoryAxisWarm: the memory-axis oracle works on pooled scratch.
// A warm MemFootprint (one call per time plan) allocates nothing. A sweep on
// a warm simulator pool allocates nothing per candidate (there are 51 here):
// 19 today — the points, the frontier as it grows, the sort index, the one
// list schedule (4), the fan-out closure and Config's default perturbation
// set (5). MemSchedule allocates its schedule, two done tables and one ready
// buffer.
func TestAllocsMemoryAxisWarm(t *testing.T) {
	sp := paretoBenchSpace()
	order := core.ReverseFirstK(sp.Model, 20, 0)
	plansearch.MemFootprint(sp.Model, order)
	if n := testing.AllocsPerRun(50, func() { plansearch.MemFootprint(sp.Model, order) }); n != 0 {
		t.Fatalf("warm MemFootprint allocates %v times per run, want 0", n)
	}

	cfg := plansearch.Config{Scratch: &sync.Pool{New: func() any { return new(core.IterScratch) }}}
	plansearch.ParetoSweep(sp, cfg)
	if n := testing.AllocsPerRun(20, func() { plansearch.ParetoSweep(sp, cfg) }); n > 24 {
		t.Fatalf("warm ParetoSweep allocates %v times per run, want at most 24", n)
	}

	m := models.ResNet(models.V100Profile(), 101, 64, models.ImageNet)
	if n := testing.AllocsPerRun(20, func() { core.MemSchedule(m) }); n > 4 {
		t.Fatalf("MemSchedule allocates %v times per run, want at most 4", n)
	}
}

// calibBenchProfile trains the benchmark MLP for a few profiled serial steps
// and returns the resulting profile (the Fit/SimulateNet benchmark input).
func calibBenchProfile(tb testing.TB) *calib.Profile {
	net := train.MLPNet(11, 64, 96, 4, 4)
	L := len(net.Layers)
	x, labels := data.Vectors(3, 32, 64, 4)
	exec := train.NewExecutor(train.ExecSerial, 0)
	defer exec.Close()
	p := calib.NewProfiler("mlp", "serial", L, 2)
	exec.SetProfiler(p, net)
	sched := graph.Conventional(L)
	opt := &nn.SGD{LR: 0.05}
	for i := 0; i < 8; i++ {
		if _, err := exec.Step(net, x, labels, sched, opt); err != nil {
			tb.Fatal(err)
		}
	}
	exec.SetProfiler(nil, nil)
	prof := &calib.Profile{Version: calib.ProfileVersion, Nets: []calib.NetProfile{p.Snapshot()}}
	if err := prof.Validate(); err != nil {
		tb.Fatal(err)
	}
	return prof
}

// BenchmarkCalibObserve measures the profiler's warm recording path — the
// per-op overhead a profiled training step pays.
func BenchmarkCalibObserve(b *testing.B) {
	p := calib.NewProfiler("bench", "serial", 8, 0)
	p.Observe(calib.OpDW, 3, "dense", 4096, time.Microsecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(calib.OpDW, 3, "dense", 4096, time.Microsecond)
	}
}

// BenchmarkCalibProfiledStep measures a full profiled serial training step —
// the end-to-end cost of running with the profiler attached.
func BenchmarkCalibProfiledStep(b *testing.B) {
	net := train.MLPNet(11, 64, 96, 4, 4)
	L := len(net.Layers)
	x, labels := data.Vectors(3, 32, 64, 4)
	exec := train.NewExecutor(train.ExecSerial, 0)
	b.Cleanup(exec.Close)
	p := calib.NewProfiler("mlp", "serial", L, 1)
	exec.SetProfiler(p, net)
	sched := graph.Conventional(L)
	opt := &nn.SGD{LR: 0.05}
	if _, err := exec.Step(net, x, labels, sched, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Step(net, x, labels, sched, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCalibFit measures fitting a cost table from a measured profile.
func BenchmarkCalibFit(b *testing.B) {
	prof := calibBenchProfile(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := calib.Fit(prof); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCalibSimulateNet measures the what-if/validation hot path: one
// table-driven re-simulation of a profiled net.
func BenchmarkCalibSimulateNet(b *testing.B) {
	prof := calibBenchProfile(b)
	table, err := calib.Fit(prof)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := calib.SimulateNet(&prof.Nets[0], table); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAllocsCalibObserveWarm pins the profiler's warm recording path to zero
// allocations — the precondition for attaching it to the real engines
// without perturbing what it measures.
func TestAllocsCalibObserveWarm(t *testing.T) {
	p := calib.NewProfiler("bench", "serial", 8, 0)
	run := func() { p.Observe(calib.OpFwd, 2, "dense", 1024, time.Microsecond) }
	run() // freeze metadata
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("warm calib Observe allocates %v times per run, want 0", n)
	}
	p.EndStep(time.Millisecond)
	if n := testing.AllocsPerRun(100, func() { p.EndStep(time.Millisecond) }); n != 0 {
		t.Fatalf("warm calib EndStep allocates %v times per run, want 0", n)
	}
}

// TestAllocsCalibProfiledStepWarm pins the profiler's cost on the full
// training step to zero: a warm profiled serial step performs exactly the
// allocations of the unprofiled one (the forward/loss path's, which the
// profiler merely observes — its own recording is allocation-free, see
// TestAllocsCalibObserveWarm).
func TestAllocsCalibProfiledStepWarm(t *testing.T) {
	x, labels := data.Vectors(3, 32, 64, 4)
	measure := func(profiled bool) float64 {
		net := train.MLPNet(11, 64, 96, 4, 4)
		L := len(net.Layers)
		exec := train.NewExecutor(train.ExecSerial, 0)
		defer exec.Close()
		if profiled {
			p := calib.NewProfiler("mlp", "serial", L, 1)
			exec.SetProfiler(p, net)
		}
		sched := graph.Conventional(L)
		opt := &nn.SGD{LR: 0.05}
		run := func() {
			if _, err := exec.Step(net, x, labels, sched, opt); err != nil {
				t.Fatal(err)
			}
		}
		run()
		run() // past warmup: profiler slots and step buffers retained
		return testing.AllocsPerRun(20, run)
	}
	plain, prof := measure(false), measure(true)
	if prof != plain {
		t.Fatalf("warm profiled step allocates %v times per run vs %v unprofiled, want equal", prof, plain)
	}
}
