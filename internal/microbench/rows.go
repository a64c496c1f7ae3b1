package microbench

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
	_ "unsafe" // go:linkname

	"oooback/internal/calib"
	"oooback/internal/core"
	"oooback/internal/data"
	"oooback/internal/datapar"
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

// step is the type of Row.Step.
type step = func(tb testing.TB) (op func(), report func(b *testing.B))

// Rows returns every micro-benchmark: scheduling algorithms and simulator
// substrates first, then the tensor kernels, the real training engines, the
// calibration loop and the plan service.
func Rows() []Row {
	return []Row{
		// Reset + 1000 Schedule + Run on a warm engine recycles pooled slots
		// and never touches the allocator.
		{Name: "SimEngine", Gated: true, Step: func(testing.TB) (func(), func(*testing.B)) {
			eng := sim.New()
			return func() {
				eng.Reset()
				for j := 0; j < 1000; j++ {
					eng.Schedule(sim.Time(j), func() {})
				}
				eng.Run()
			}, nil
		}},
		// The cold-start variant: a new engine per run (the pre-Reset usage
		// pattern), paying the arena growth each time.
		{Name: "SimEngineFresh", Step: func(testing.TB) (func(), func(*testing.B)) {
			return func() {
				eng := sim.New()
				for j := 0; j < 1000; j++ {
					eng.Schedule(sim.Time(j), func() {})
				}
				eng.Run()
			}, nil
		}},
		{Name: "SimulateIteration", Step: func(testing.TB) (func(), func(*testing.B)) {
			c, order, prio := iterProbe()
			return func() { core.SimulateIteration(c, order, prio, true) }, nil
		}},
		// The IterScratch probes are the SearchK / ablation-sweep inner loop:
		// once the buffers are sized they allocate nothing.
		{Name: "SimulateIterationWarmScratch", Gated: true, Step: func(testing.TB) (func(), func(*testing.B)) {
			c, order, prio := iterProbe()
			var s core.IterScratch
			s.SimulateIteration(c, order, prio, true)
			return func() { s.SimulateIteration(c, order, prio, true) }, nil
		}},
		{Name: "SimulateIterationOverlappedWarmScratch", Gated: true, Step: func(testing.TB) (func(), func(*testing.B)) {
			c, order, prio := iterProbe()
			overlapped := func(layer int) bool { return layer%2 == 0 }
			var s core.IterScratch
			s.SimulateIterationOverlapped(c, order, prio, true, overlapped)
			return func() { s.SimulateIterationOverlapped(c, order, prio, true, overlapped) }, nil
		}},
		// One probe of the reverse-first-k family on a warm scratch — memory
		// clamp under a budget that does not bind, order built in the
		// scratch, one simulation — under each of the channel's three ways of
		// serving (core.IterScratch.commTimeline).
		{Name: "ProbeReverseFirstKFIFO", Gated: true, Step: probeReverseFirstK(datapar.OOOHorovod, false, false)},
		{Name: "ProbeReverseFirstKPriority", Gated: true, Step: probeReverseFirstK(datapar.P3, true, false)},
		{Name: "ProbeReverseFirstKPreemptive", Gated: true, Step: probeReverseFirstK(datapar.OOOBytePS, true, true)},
		// Every reverse-first-k depth of ResNet-50 as one family sweep on a
		// warm scratch (core.IterScratch.SweepReverseFirstK), per case.
		{Name: "SweepReverseFirstKFIFO", Gated: true, Step: sweepReverseFirstK(datapar.OOOHorovod)},
		{Name: "SweepReverseFirstKPriority", Gated: true, Step: sweepReverseFirstK(datapar.P3)},
		{Name: "SweepReverseFirstKPreemptive", Gated: true, Step: sweepReverseFirstK(datapar.OOOBytePS)},
		{Name: "SearchK", Step: func(testing.TB) (func(), func(*testing.B)) {
			m := models.ResNet(models.V100Profile(), 50, 128, models.ImageNet)
			c := datapar.Costs(m, datapar.PubA(), 16, datapar.BytePS)
			prio := func(l int) int { return l }
			L := len(m.Layers)
			var s core.IterScratch
			return func() {
				core.SearchK(L, func(k int) float64 {
					r := s.SimulateIteration(c, core.ReverseFirstK(m, k, 0), prio, true)
					return core.Throughput(r.Makespan, m.Batch)
				})
			}, nil
		}},
		{Name: "ReverseFirstK", Step: func(testing.TB) (func(), func(*testing.B)) {
			m := models.ResNet(models.V100Profile(), 101, 64, models.ImageNet)
			return func() { core.ReverseFirstK(m, 40, 16<<30) }, nil
		}},
		// MemSchedule allocates its schedule, its walker's flags and its
		// ready list.
		{Name: "MemSchedule", Gated: true, MaxAllocs: 3, Step: func(testing.TB) (func(), func(*testing.B)) {
			m := models.ResNet(models.V100Profile(), 101, 64, models.ImageNet)
			return func() { core.MemSchedule(m) }, nil
		}},
		{Name: "ListSchedule", Step: func(testing.TB) (func(), func(*testing.B)) {
			m := models.ResNet(models.V100Profile(), 50, 64, models.ImageNet)
			c := datapar.Costs(m, datapar.PubA(), 16, datapar.BytePS)
			return func() { core.ListSchedule(c) }, nil
		}},
		{Name: "ParetoSweep", Step: func(testing.TB) (func(), func(*testing.B)) {
			sp := paretoSpace()
			return func() { plansearch.ParetoSweep(sp, plansearch.Config{}) }, nil
		}},
		// On a warm simulator pool a sweep allocates nothing per candidate
		// (there are 51 here): 13 today — the search state (3), the id list,
		// the fan-out closure, the points, the frontier, and the sweep's own
		// footprint table (2) with its list schedule (4).
		{Name: "ParetoSweepWarmPool", Gated: true, MaxAllocs: 16, Step: func(testing.TB) (func(), func(*testing.B)) {
			sp := paretoSpace()
			cfg := plansearch.Config{Scratch: &sync.Pool{New: func() any { return new(core.IterScratch) }}}
			plansearch.ParetoSweep(sp, cfg)
			return func() { plansearch.ParetoSweep(sp, cfg) }, nil
		}},
		// The same sweep over the model's filled footprint table, as the plan
		// service runs it: one family sweep and one list-schedule simulation,
		// no replay, and 7 allocations.
		{Name: "ParetoSweepWarmTable", Gated: true, MaxAllocs: 7, Step: func(testing.TB) (func(), func(*testing.B)) {
			sp := paretoSpace()
			sp.Mem = plansearch.NewMemTable(sp.Model)
			cfg := plansearch.Config{Scratch: &sync.Pool{New: func() any { return new(core.IterScratch) }}}
			plansearch.ParetoSweep(sp, cfg)
			return func() { plansearch.ParetoSweep(sp, cfg) }, nil
		}},
		// A budgeted search over the same filled table at a mid budget, as
		// the plan service runs objective=memory: the bound order simulates 4
		// of the 51 candidates, in 7 allocations, none of them per probe.
		{Name: "MemorySearchWarmTable", Gated: true, MaxAllocs: 8, Step: func(testing.TB) (func(), func(*testing.B)) {
			sp := paretoSpace()
			sp.Mem = plansearch.NewMemTable(sp.Model)
			cfg := plansearch.Config{Scratch: &sync.Pool{New: func() any { return new(core.IterScratch) }}}
			lo, hi := sp.Mem.Footprint(0).FragPeakBytes, sp.Mem.Footprint(0).FragPeakBytes
			for k := range len(sp.Model.Layers) + 1 {
				lo, hi = min(lo, sp.Mem.Footprint(k).FragPeakBytes), max(hi, sp.Mem.Footprint(k).FragPeakBytes)
			}
			budget := lo + (hi-lo)/2
			probes := plansearch.MemorySearch(sp, budget, cfg).Probes
			return func() { plansearch.MemorySearch(sp, budget, cfg) }, func(b *testing.B) {
				b.ReportMetric(float64(probes), "probes/op")
			}
		}},
		// One footprint replay per time plan, on pooled scratch.
		{Name: "MemFootprintWarm", Gated: true, Step: func(testing.TB) (func(), func(*testing.B)) {
			m := paretoSpace().Model
			order := core.ReverseFirstK(m, 20, 0)
			plansearch.MemFootprint(m, order)
			return func() { plansearch.MemFootprint(m, order) }, nil
		}},
		{Name: "MemoryProfile", Step: func(testing.TB) (func(), func(*testing.B)) {
			m := models.DenseNet(models.V100Profile(), 169, 32, 64, models.ImageNet)
			s := graph.Conventional(len(m.Layers))
			return func() { graph.MemoryProfile(m, s) }, nil
		}},
		// The recompute report's costliest row: ResNet-50 under reverse
		// first-20, checkpointed every 4 layers. The walk allocates its
		// profile and its walker's flags.
		{Name: "MemoryProfileRecompute", Gated: true, MaxAllocs: 2, Step: func(testing.TB) (func(), func(*testing.B)) {
			m := models.ResNet(models.V100Profile(), 50, 64, models.ImageNet)
			s := graph.ReverseFirstK(len(m.Layers), 20)
			return func() { graph.MemoryProfileRecompute(m, s, 4) }, nil
		}},
		{Name: "MultiRegionJoint", Step: func(testing.TB) (func(), func(*testing.B)) {
			m := models.DenseNet(models.V100Profile(), 121, 32, 64, models.ImageNet)
			gpu := gpusim.V100()
			return func() { singlegpu.Run(m, singlegpu.OOOXLA(), gpu) }, nil
		}},
		{Name: "GPUSimDenseNetIteration", Step: func(testing.TB) (func(), func(*testing.B)) {
			m := models.DenseNet(models.V100Profile(), 121, 12, 32, models.CIFAR100)
			gpu := gpusim.V100()
			return func() { singlegpu.Run(m, singlegpu.XLA(), gpu) }, nil
		}},
		{Name: "PipelineBERT48", Step: func(testing.TB) (func(), func(*testing.B)) {
			m := models.VocabParallelHead(models.BERT(models.V100Profile(), 48, 128, 512), 32)
			cfg := pipepar.Config{
				GPUs: 32, MicroBatches: 32, Alloc: core.ModuloAllocation(len(m.Layers), 32, 1),
				FastForward: true, Schedule: pipepar.GPipe, Link: netsim.NVLink(), Iterations: 3,
			}
			return func() { pipepar.Run(m, cfg) }, nil
		}},
		{Name: "LinkPriorityTransfers", Step: func(testing.TB) (func(), func(*testing.B)) {
			return func() {
				eng := sim.New()
				l := netsim.NewLink(eng, netsim.Ethernet10G())
				for j := 0; j < 50; j++ {
					l.Transfer("t", 4<<20, j%5, nil)
				}
				eng.Run()
			}, nil
		}},
		{Name: "PSSyncTime", Step: func(testing.TB) (func(), func(*testing.B)) {
			spec := netsim.Ethernet10G()
			return func() { sinkDuration = netsim.PSSyncTime(spec, 100<<20, 48, 4) }, nil
		}},
		{Name: "PlanServiceLoadgen", Bench: func(b *testing.B) {
			srv := planServer(b)
			runLoad(b, plansvc.LoadSpec{BaseURL: srv.URL})
		}},
		// The sharded sibling of PlanServiceLoadgen: the gap between the two
		// p99s is the routing/proxy overhead of the tier (acceptance bar:
		// within 2×).
		{Name: "ShardLoadgen3", Bench: func(b *testing.B) {
			tier, err := shardsvc.StartTier(shardsvc.TierOptions{Shards: 3, Logger: quiet()})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(tier.Close)
			runLoad(b, plansvc.LoadSpec{BaseURLs: tier.URLs()})
		}},

		{Name: "TensorMatMul", Step: func(testing.TB) (func(), func(*testing.B)) {
			x, y := gemmOperands()
			return func() { tensor.MatMul(x, y) }, nil
		}},
		{Name: "TensorConv2D", Step: func(testing.TB) (func(), func(*testing.B)) {
			rng := tensor.NewRNG(1)
			x := tensor.Randn(rng, 1, 8, 8, 16, 16)
			w := tensor.Randn(rng, 1, 16, 8, 3, 3)
			return func() { tensor.Conv2D(x, w) }, nil
		}},
		// The fused-transpose GEMMs and the pooled conv lowering that carry
		// the real training hot path, in their Into forms.
		{Name: "TensorKernelMatMulT", Step: func(testing.TB) (func(), func(*testing.B)) {
			x, y := gemmOperands()
			dst := tensor.New(128, 128)
			return func() { tensor.MatMulTInto(dst, x, y) }, nil
		}},
		{Name: "TensorKernelTMatMul", Step: func(testing.TB) (func(), func(*testing.B)) {
			x, y := gemmOperands()
			dst := tensor.New(128, 128)
			return func() { tensor.TMatMulInto(dst, x, y) }, nil
		}},
		// Im2colInto and Col2imInto are the pixel-major lowering and scatter of
		// the allocating reference convolutions (tensor.Conv2D and siblings) —
		// the training path lowers channel-major, see TensorKernelConvLower.
		{Name: "TensorKernelIm2col", Step: func(testing.TB) (func(), func(*testing.B)) {
			rng := tensor.NewRNG(1)
			x := tensor.Randn(rng, 1, 8, 8, 16, 16)
			dst := tensor.New(8*14*14, 8*3*3)
			return func() { tensor.Im2colInto(dst, x, 3, 3) }, nil
		}},
		{Name: "TensorKernelCol2im", Step: func(testing.TB) (func(), func(*testing.B)) {
			rng := tensor.NewRNG(1)
			cols := tensor.Randn(rng, 1, 8*14*14, 8*3*3)
			dst := tensor.New(8, 8, 16, 16)
			return func() { tensor.Col2imInto(dst, cols, 3, 3) }, nil
		}},
		// The axpy-form kernel on the shape the conv workload's forward gives
		// it: wm[16×72]·colsT_b[72×144] for each of 32 images, the 83 KB
		// lowering read once per image by the panel walk.
		{Name: "TensorKernelMatMul", Step: func(testing.TB) (func(), func(*testing.B)) {
			rng := tensor.NewRNG(1)
			wm, out := tensor.Randn(rng, 1, 16, 72), tensor.New(16, 144)
			var images [32]*tensor.Tensor
			for b := range images {
				images[b] = tensor.Randn(rng, 1, 72, 144)
			}
			return func() {
				for _, colsT := range images {
					tensor.MatMulInto(out, wm, colsT)
				}
			}, nil
		}},
		// The dot-form kernel's Go loops — the path of every CPU without AVX2
		// and the oracle the vector path is tested against — on the operands of
		// TensorKernelMatMulT, so the snapshot always holds both paths.
		{Name: "TensorKernelMatMulTPortable", Step: func(testing.TB) (func(), func(*testing.B)) {
			x, y := gemmOperands()
			dst := tensor.New(128, 128)
			return func() { tensorMatMulTRangeGo(dst.Data, x.Data, y.Data, 128, 128, 0, 128, false) }, nil
		}},
		// The zero-alloc contract of the pooled kernel layer: fused GEMMs,
		// both conv lowerings and the fused channel-major conv kernels into
		// workspace buffers never touch the allocator once the workspace is
		// warm.
		{Name: "TensorKernelsWarmWorkspace", Gated: true, Step: func(testing.TB) (func(), func(*testing.B)) {
			rng := tensor.NewRNG(1)
			a := tensor.Randn(rng, 1, 64, 48)
			bb := tensor.Randn(rng, 1, 64, 48)
			x := tensor.Randn(rng, 1, 2, 3, 12, 12)
			g := tensor.Randn(rng, 1, 2, 5, 10, 10)
			wm := tensor.Randn(rng, 1, 5, 3*3*3)
			ws := tensor.NewWorkspace()
			return func() {
				mm := ws.Get(64, 64)
				tensor.MatMulTInto(mm, a, bb) // a·bᵀ
				tm := ws.Get(48, 48)
				tensor.TMatMulInto(tm, a, bb) // aᵀ·b
				cols := ws.Get(2*10*10, 3*3*3)
				tensor.Im2colInto(cols, x, 3, 3)
				im := ws.Get(2, 3, 12, 12)
				tensor.Col2imInto(im, cols, 3, 3)
				out, colsT := ws.Get(2, 5, 10, 10), ws.Get(2, 3*3*3, 10*10)
				tensor.ConvForwardInto(out, colsT, x, wm, 3, 3)
				tensor.ConvInputGradInto(im, g, wm, 3, 3, ws)
				dw := ws.GetZeroed(5, 3*3*3)
				tensor.ConvWeightGradAcc(dw, g, colsT)
				ws.Put(dw)
				ws.Put(colsT)
				ws.Put(out)
				ws.Put(im)
				ws.Put(cols)
				ws.Put(tm)
				ws.Put(mm)
			}, nil
		}},

		{Name: "TrainBackwardMLPSerial", Step: trainBackward(MLP, train.ExecSerial, false)},
		{Name: "TrainBackwardMLPSerialReverseK", Step: trainBackward(MLP, train.ExecSerial, true), Gated: true},
		{Name: "TrainBackwardMLPConcurrentConventional", Step: trainBackward(MLP, train.ExecConcurrent, false)},
		{Name: "TrainBackwardMLPConcurrent", Step: trainBackward(MLP, train.ExecConcurrent, true)},
		{Name: "TrainBackwardConvSerial", Step: trainBackward(Conv, train.ExecSerial, false)},
		{Name: "TrainBackwardConvConcurrent", Step: trainBackward(Conv, train.ExecConcurrent, true)},
		{Name: "TrainBackwardNLPSerial", Step: trainBackward(NLP, train.ExecSerial, false)},
		{Name: "TrainBackwardNLPConcurrent", Step: trainBackward(NLP, train.ExecConcurrent, true)},
		{Name: "TrainDataParallelMLP1", Step: trainDataParallel(MLP, 1)},
		{Name: "TrainDataParallelMLP2", Step: trainDataParallel(MLP, 2), Gated: true},
		{Name: "TrainDataParallelMLP4", Step: trainDataParallel(MLP, 4)},
		{Name: "TrainDataParallelConv2", Step: trainDataParallel(Conv, 2)},
		{Name: "TrainDataParallelNLP2", Step: trainDataParallel(NLP, 2)},
		{Name: "TrainPipelineGPipeFill", Step: trainPipeline(MLP, 3, train.PipeGPipe, true)},
		{Name: "TrainPipelineGPipeNoFill", Step: trainPipeline(MLP, 3, train.PipeGPipe, false)},
		{Name: "TrainPipeline1F1BFill", Step: trainPipeline(MLP, 3, train.Pipe1F1B, true), Gated: true},
		{Name: "TrainPipeline1F1BNoFill", Step: trainPipeline(MLP, 3, train.Pipe1F1B, false)},
		// The benchmark's pipe2x4 engine on the train_conv net: stage 0 holds
		// conv1 and conv2, whose kernels fan out on a micro-batch of 8 when
		// GOMAXPROCS > 1 (the gate runs at 1, where nothing fans out).
		{Name: "TrainPipelineConv1F1BFill", Step: trainPipeline(convStepNet, 2, train.Pipe1F1B, true), Gated: true},
		// Whole warm steps of the serial engine — forward, loss, backward,
		// update — on the nets of the benchmark's two train workloads, plain
		// and checkpointed every 2. Neither allocates: the checkpointed step's
		// bookkeeping lives on the executor, and the stashes it drops (masks,
		// lowerings, the argmax map) keep their capacity for the restash that
		// rebuilds them from the kept activations.
		{Name: "TrainStepMLPSerial", Gated: true, Step: trainStep(MLP, train.ExecSerial, 0)},
		{Name: "TrainStepMLPRecompute", Gated: true, Step: trainStep(MLP, train.ExecSerial, 2)},
		{Name: "TrainStepConvSerial", Gated: true, Step: trainStep(convStepNet, train.ExecSerial, 0)},
		{Name: "TrainStepConvRecompute", Gated: true, Step: trainStep(convStepNet, train.ExecSerial, 2)},
		// The same whole step under the concurrent engine and the out-of-order
		// schedule: dispatch, the workers' poll and the caller's drain allocate
		// nothing either, and the δW ops fold straight into Grad with no
		// scratch. (The data-parallel whole step is TrainDataParallelMLP2
		// above, gated at 0 as well.)
		{Name: "TrainStepMLPConcurrent", Gated: true, Step: trainStep(MLP, train.ExecConcurrent, 0)},
		// The pooled rectifier pair at the size of the conv workload's larger
		// activation (73 728 elements): a compare-and-mask select each way.
		{Name: "NNReLUForwardBackward", Gated: true, Step: func(testing.TB) (func(), func(*testing.B)) {
			rng := tensor.NewRNG(1)
			x, g := tensor.Randn(rng, 1, 32, 16, 12, 12), tensor.Randn(rng, 1, 32, 16, 12, 12)
			relu, ws := nn.NewReLU("relu"), tensor.NewWorkspace()
			op := func() {
				relu.ForwardWS(x, ws)
				relu.InputGradWS(g, ws)
			}
			op()
			return op, nil
		}},
		// A checkpointed step's rebuild of the rectifier's dropped keep mask
		// from its output, at the same size: a compare per element, no
		// rectified value written.
		{Name: "NNReLURestash", Gated: true, Step: func(testing.TB) (func(), func(*testing.B)) {
			relu, ws := nn.NewReLU("relu"), tensor.NewWorkspace()
			out := relu.ForwardWS(tensor.Randn(tensor.NewRNG(1), 1, 32, 16, 12, 12), ws)
			return func() {
				relu.DropStash()
				relu.Restash(out)
			}, nil
		}},
		// The pooled forward, δO and δW of the MLP's hidden Dense layer
		// (x[32×96]·W[96×96]): three GEMMs, the bias broadcast, and the δW
		// folded straight into the parameter gradients.
		{Name: "NNDenseStep", Gated: true, Step: func(testing.TB) (func(), func(*testing.B)) {
			rng := tensor.NewRNG(1)
			x, g := tensor.Randn(rng, 1, 32, 96), tensor.Randn(rng, 1, 32, 96)
			dense, ws := nn.NewDense("fc", 96, 96, rng), tensor.NewWorkspace()
			op := func() {
				dense.ForwardWS(x, ws)
				dense.InputGradWS(g, ws)
				dense.WeightGradAcc(g)
			}
			op()
			return op, nil
		}},
		// The plain SGD update of the MLP's 34 564 parameters: one rounded
		// multiply and one subtract per element.
		{Name: "NNOptimizerSGD", Gated: true, Step: func(testing.TB) (func(), func(*testing.B)) {
			params, rng := MLP().Build().Params(), tensor.NewRNG(1)
			for _, p := range params {
				copy(p.Grad.Data, tensor.Randn(rng, 1, p.Grad.Len()).Data)
			}
			opt := &nn.SGD{LR: 0.01}
			return func() { opt.Step(params) }, nil
		}},
		// The channel-major lowering and scatter of the training path's
		// convolution, alone, on the conv workload's second layer (8 channels
		// of 14×14 under a 3×3 window, 32 images): one strided row copy or row
		// add of twelve 12-element runs per lowered row, in the order
		// tensor.ConvForwardInto and ConvInputGradInto issue them.
		{Name: "TensorKernelConvLower", Gated: true, Step: func(testing.TB) (func(), func(*testing.B)) {
			x, colsT := tensor.Randn(tensor.NewRNG(1), 1, 32, 8, 14, 14), tensor.New(32, 72, 144)
			return func() {
				for b := 0; b < 32; b++ {
					xb, cb := x.Data[b*8*14*14:(b+1)*8*14*14], colsT.Data[b*72*144:(b+1)*72*144]
					for row := 0; row < 72; row++ {
						ch, ky, kx := row/9, row/3%3, row%3
						tensorCopyRows(cb[row*144:(row+1)*144], 12, xb[(ch*14+ky)*14+kx:], 14, 12, 12)
					}
				}
			}, nil
		}},
		{Name: "TensorKernelConvScatter", Gated: true, Step: func(testing.TB) (func(), func(*testing.B)) {
			cg, gin := tensor.Randn(tensor.NewRNG(1), 1, 32, 72, 144), tensor.New(32, 8, 14, 14)
			return func() {
				gin.Zero()
				for b := 0; b < 32; b++ {
					gb, cb := gin.Data[b*8*14*14:(b+1)*8*14*14], cg.Data[b*72*144:(b+1)*72*144]
					for ch := 0; ch < 8; ch++ {
						for w := 8; w >= 0; w-- {
							row := ch*9 + w
							tensorAddRows(gb[(ch*14+w/3)*14+w%3:], 14, cb[row*144:(row+1)*144], 12, 12, 12)
						}
					}
				}
			}, nil
		}},
		// The dot-form kernel seeded from its output, on the shape the conv
		// workload's δW gives it: dw[16×72] += g_b[16×144]·colsT_b[72×144]ᵀ
		// folded over 32 images.
		{Name: "TensorKernelDotSeeded", Gated: true, Step: func(testing.TB) (func(), func(*testing.B)) {
			rng := tensor.NewRNG(1)
			g, colsT, dw := tensor.Randn(rng, 1, 32, 16, 12, 12), tensor.Randn(rng, 1, 32, 72, 144), tensor.New(16, 72)
			return func() {
				dw.Zero()
				tensor.ConvWeightGradAcc(dw, g, colsT)
			}, nil
		}},
		// conv2 of the conv workload on one pipeline micro-batch: 8 images of
		// 8×14×14 lowered and multiplied by the 16×72 filter matrix, 2.65
		// MFLOP, above the GEMM fan-out threshold, so with GOMAXPROCS > 1 the
		// images split over the processors.
		{Name: "TensorKernelConvForwardMicro8", Gated: true, Step: func(testing.TB) (func(), func(*testing.B)) {
			rng := tensor.NewRNG(1)
			x, wm := tensor.Randn(rng, 1, 8, 8, 14, 14), tensor.Randn(rng, 1, 16, 72)
			out, colsT := tensor.New(8, 16, 12, 12), tensor.New(8, 72, 144)
			return func() { tensor.ConvForwardInto(out, colsT, x, wm, 3, 3) }, nil
		}},
		// 2×2 max pooling of the conv workload's pooled activation: three
		// compares per output, each a blend of the value and its window
		// offset (four outputs per vector step), no branch on the data.
		{Name: "TensorKernelMaxPool2", Gated: true, Step: func(testing.TB) (func(), func(*testing.B)) {
			x, out := tensor.Randn(tensor.NewRNG(1), 1, 32, 16, 12, 12), tensor.New(32, 16, 6, 6)
			arg := make([]int, out.Len())
			return func() { tensor.MaxPool2Into(out, arg, x) }, nil
		}},
		// The same scan as a checkpointed step's restash runs it: the argmax
		// map alone, no pooled output written.
		{Name: "TensorKernelMaxPool2Arg", Gated: true, Step: func(testing.TB) (func(), func(*testing.B)) {
			x := tensor.Randn(tensor.NewRNG(1), 1, 32, 16, 12, 12)
			arg := make([]int, x.Len()/4)
			return func() { tensor.MaxPool2ArgInto(arg, x) }, nil
		}},
		// The elementwise add that folds the hidden Dense layer's δW (96×96)
		// into its gradient and sums data-parallel gradient buckets.
		{Name: "TensorKernelAddSpan", Gated: true, Step: func(testing.TB) (func(), func(*testing.B)) {
			rng := tensor.NewRNG(1)
			dst, src := tensor.Randn(rng, 1, 96, 96), tensor.Randn(rng, 1, 96, 96)
			return func() { tensor.AddSpan(dst.Data, src.Data) }, nil
		}},

		// The profiler's warm recording path must stay allocation-free — the
		// precondition for attaching it to the real engines without perturbing
		// what it measures.
		{Name: "CalibObserve", Gated: true, Step: func(testing.TB) (func(), func(*testing.B)) {
			p := calib.NewProfiler("bench", "serial", 8, 0)
			p.Observe(calib.OpDW, 3, "dense", 4096, time.Microsecond)
			return func() { p.Observe(calib.OpDW, 3, "dense", 4096, time.Microsecond) }, nil
		}},
		{Name: "CalibEndStep", Gated: true, Step: func(testing.TB) (func(), func(*testing.B)) {
			p := calib.NewProfiler("bench", "serial", 8, 0)
			p.Observe(calib.OpFwd, 2, "dense", 1024, time.Microsecond)
			p.EndStep(time.Millisecond)
			return func() { p.EndStep(time.Millisecond) }, nil
		}},
		// A full profiled serial training step: the end-to-end cost of running
		// with the profiler attached.
		{Name: "CalibProfiledStep", Step: func(tb testing.TB) (func(), func(*testing.B)) {
			rn := MLP()
			net := rn.Build()
			L := len(net.Layers)
			exec := train.NewExecutor(train.ExecSerial, 0)
			tb.Cleanup(exec.Close)
			exec.Observe(train.ProfileObserver(calib.NewProfiler("mlp", "serial", L, 1), net))
			sched := graph.Conventional(L)
			opt := &nn.SGD{LR: 0.05}
			op := func() {
				if _, err := exec.Step(net, rn.X, rn.Labels, sched, opt); err != nil {
					tb.Fatal(err)
				}
			}
			op()
			return op, nil
		}},
		{Name: "CalibFit", Step: func(tb testing.TB) (func(), func(*testing.B)) {
			prof := refProfile(tb)
			return func() {
				if _, err := calib.Fit(prof); err != nil {
					tb.Fatal(err)
				}
			}, nil
		}},
		// The what-if/validation hot path: one table-driven re-simulation of a
		// profiled net.
		{Name: "CalibSimulateNet", Step: func(tb testing.TB) (func(), func(*testing.B)) {
			prof := refProfile(tb)
			table, err := calib.Fit(prof)
			if err != nil {
				tb.Fatal(err)
			}
			return func() {
				if _, err := calib.SimulateNet(&prof.Nets[0], table); err != nil {
					tb.Fatal(err)
				}
			}, nil
		}},

		{Name: "PlanColdMissExact", Step: planColdMiss(plansvc.SearchExact)},
		// 57 today: the plan's own slices (costs, bounds, search state, the
		// baseline schedule, labels) and the JSON encoder; no probe
		// allocates, and the footprint is a table lookup.
		{Name: "PlanColdMissGuided", Gated: true, MaxAllocs: 68, Step: planColdMiss(plansvc.SearchGuided)},
		// Steady-state batch fan-out: 8 distinct specs, each duplicated once,
		// answered from the LRU under a single PlanBatch call. The row prices
		// the batch path itself (dedup, singleflight probing, fan-out, one
		// admission check), not the planner.
		{Name: "PlanBatch16", Step: func(tb testing.TB) (func(), func(*testing.B)) {
			svc := plansvc.New(plansvc.Options{Logger: quiet()})
			tb.Cleanup(svc.Close)
			var req plansvc.BatchRequest
			for i := 0; i < 8; i++ {
				pr := plansvc.PlanRequest{
					Model:   "resnet50",
					Cluster: plansvc.ClusterSpec{Preset: "pub-a", GPUs: 2 + i},
				}
				req.Requests = append(req.Requests, pr, pr)
			}
			ctx := context.Background()
			op := func() {
				resp, err := svc.PlanBatch(ctx, &req)
				if err != nil {
					tb.Fatal(err)
				}
				if resp.Distinct != 8 || resp.Deduplicated != 8 {
					tb.Fatalf("batch shape: %+v", resp)
				}
			}
			op()
			return op, nil
		}},
		// One warm restart per iteration: a fresh service over a populated
		// warm-start cache serves its first request as a disk hit — worker
		// pool spin-up plus segment-indexed lookup, zero planner probes.
		{Name: "WarmRestart", Step: func(tb testing.TB) (func(), func(*testing.B)) {
			wc, err := warmcache.Open(tb.TempDir())
			if err != nil {
				tb.Fatal(err)
			}
			tb.Cleanup(func() { wc.Close() })
			ctx := context.Background()
			req := &plansvc.PlanRequest{
				Model:   "resnet50",
				Cluster: plansvc.ClusterSpec{Preset: "pub-a", GPUs: 16},
			}
			logger := quiet()
			op := func() {
				svc := plansvc.New(plansvc.Options{Logger: logger, WarmCache: wc})
				if _, err := svc.Plan(ctx, req); err != nil {
					tb.Fatal(err)
				}
				svc.Close()
			}
			op() // the seeding service computes the plan and populates the cache
			return op, nil
		}},
		{Name: "PlanServiceWarmHit", Step: func(tb testing.TB) (func(), func(*testing.B)) {
			srv := planServer(tb)
			body := plansvc.LoadSpec{}.RequestBody(0)
			client := srv.Client()
			op := func() {
				resp, err := client.Post(srv.URL+"/v1/plan", "application/json", bytes.NewReader(body))
				if err != nil {
					tb.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			op() // warm the cache
			return op, nil
		}},
		// The router seam, without sockets: one resident /v1/plan body answered
		// through an httptest recorder by a bare service, by a shard that owns
		// the body's fingerprint and by one that does not. The gap between the
		// first row and the other two is what ring routing costs over a bare
		// hit; the recorder and its header map are part of all three.
		{Name: "ServiceHit", Gated: true, MaxAllocs: 35, Step: residentHit("")},
		{Name: "TierHitLocalOwner", Gated: true, MaxAllocs: 36, Step: residentHit(shardsvc.RouteLocalOwner)},
		{Name: "TierHitPeerCache", Gated: true, MaxAllocs: 32, Step: residentHit(shardsvc.RoutePeerCache)},
	}
}

// tensorMatMulTRangeGo is tensor's portable dot-form range kernel, reached by
// linkname: which path the kernels take is decided from the CPU and is not
// something a caller can choose, so there is no exported way to run this one.
//
//go:linkname tensorMatMulTRangeGo oooback/internal/tensor.matMulTRangeGo
func tensorMatMulTRangeGo(out, a, b []float64, k, n, lo, hi int, seeded bool)

// tensorCopyRows and tensorAddRows are tensor's strided row kernels, the
// bodies of the channel-major lowering and scatter, reached the same way.
//
//go:linkname tensorCopyRows oooback/internal/tensor.copyRows
func tensorCopyRows(dst []float64, ds int, src []float64, ss, rows, n int)

//go:linkname tensorAddRows oooback/internal/tensor.addRows
func tensorAddRows(dst []float64, ds int, src []float64, ss, rows, n int)

// sinkDuration keeps the compiler from eliding a pure call under measurement.
var sinkDuration time.Duration

func quiet() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// gemmOperands are the two 128×128 matrices of the GEMM rows.
func gemmOperands() (x, y *tensor.Tensor) {
	rng := tensor.NewRNG(1)
	return tensor.Randn(rng, 1, 128, 128), tensor.Randn(rng, 1, 128, 128)
}

// iterProbe is the iteration-simulator input: ResNet-152 on 32 pub-a workers
// under the conventional order with layer-priority preemption.
func iterProbe() (core.IterCosts, graph.BackwardSchedule, func(int) int) {
	m := models.ResNet(models.V100Profile(), 152, 64, models.ImageNet)
	c := datapar.Costs(m, datapar.PubA(), 32, datapar.BytePS)
	return c, graph.Conventional(len(m.Layers)), func(l int) int { return l }
}

// probeReverseFirstK is one search probe as plansearch issues it, on the
// iterProbe model under the method's costs: byLayer selects per-layer
// priorities (one class otherwise).
func probeReverseFirstK(method datapar.Method, byLayer, preemptive bool) step {
	return func(testing.TB) (func(), func(*testing.B)) {
		m := models.ResNet(models.V100Profile(), 152, 64, models.ImageNet)
		c := datapar.Costs(m, datapar.PubA(), 32, method)
		prio := func(int) int { return 0 }
		if byLayer {
			prio = func(l int) int { return l }
		}
		L := len(m.Layers)
		const budget = int64(1) << 40
		var s core.IterScratch
		return func() {
			k := core.ClampK(L, L/2, budget, func(j int) bool {
				return graph.PeakMemory(m, s.ReverseFirstK(L, j)) <= budget
			})
			sinkDuration = s.SimulateIteration(c, s.ReverseFirstK(L, k), prio, preemptive).Makespan
		}, nil
	}
}

// sweepReverseFirstK is one family sweep of ResNet-50's L depths under
// method's channel.
func sweepReverseFirstK(method datapar.Method) step {
	return func(testing.TB) (func(), func(*testing.B)) {
		m := models.ResNet(models.V100Profile(), 50, 64, models.ImageNet)
		c := datapar.Costs(m, datapar.PubA(), 32, method)
		prio, preemptive := method.Channel()
		out := make([]time.Duration, len(m.Layers))
		var s core.IterScratch
		return func() { s.SweepReverseFirstK(c, prio, preemptive, 0, len(out), out) }, nil
	}
}

// paretoSpace is the ResNet-50 single-discipline space of the memory-axis rows.
func paretoSpace() plansearch.Space {
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

// trainBackward measures one real backward pass through a pooled Executor
// (the naive allocating Network.Backward walk is a correctness reference, not
// a row): conventional order, or reverse-first-L, the out-of-order order that
// exposes every δW to the concurrent engine's worker pool.
func trainBackward(ref func() RefNet, mode train.ExecMode, reverseK bool) step {
	return func(tb testing.TB) (func(), func(*testing.B)) {
		rn := ref()
		net := rn.Build()
		L := len(net.Layers)
		_, lossGrad := nn.SoftmaxCrossEntropy(net.Forward(rn.X), rn.Labels)
		sched := graph.Conventional(L)
		if reverseK {
			sched = graph.ReverseFirstK(L, L)
		}
		exec := train.NewExecutor(mode, 0)
		tb.Cleanup(exec.Close)
		op := func() {
			if _, err := exec.Backward(net, lossGrad, sched); err != nil {
				tb.Fatal(err)
			}
		}
		op() // warm retained layer buffers and the chain workspace
		return op, nil
	}
}

// convStepNet is the net and batch shape of the benchmark's train_conv
// workload: ConvNet(16, 8) on 32 images.
func convStepNet() RefNet {
	x, labels := data.Images(5, 32, 1, 16, 16, 10)
	return RefNet{"conv16", func() *train.Network { return train.ConvNet(11, 16, 8, 10) }, x, labels}
}

// trainStep measures one whole training step: Executor.Step on a serial
// executor under the conventional order or on a concurrent one under reverse
// first-L/2, or StepRecompute keeping every `every`-th activation when
// every > 1.
func trainStep(ref func() RefNet, mode train.ExecMode, every int) step {
	return func(tb testing.TB) (func(), func(*testing.B)) {
		rn := ref()
		net := rn.Build()
		L := len(net.Layers)
		sched := graph.Conventional(L)
		if mode == train.ExecConcurrent {
			sched = graph.ReverseFirstK(L, L/2)
		}
		exec, opt := train.NewExecutor(mode, 0), &nn.SGD{LR: 0.01}
		tb.Cleanup(exec.Close)
		op := func() {
			var err error
			if every > 1 {
				_, _, err = exec.StepRecompute(net, rn.X, rn.Labels, sched, every, opt)
			} else {
				_, err = exec.Step(net, rn.X, rn.Labels, sched, opt)
			}
			if err != nil {
				tb.Fatal(err)
			}
		}
		op() // size the retained buffers, the workspace and the loss gradient
		op()
		return op, nil
	}
}

// trainDataParallel measures one full data-parallel training step: sharded
// forward, concurrent out-of-order backward, overlapped bucket reduction,
// optimizer update and weight broadcast. The custom metrics decompose the
// reduction cost: reduce-busy-ns is total time inside bucket reductions,
// reduce-exposed-ns the part that ran after the last replica's backward
// finished. Overlap shows as exposed < busy; on a single-core host the phases
// serialize and parity is expected.
func trainDataParallel(ref func() RefNet, replicas int) step {
	return func(tb testing.TB) (func(), func(*testing.B)) {
		rn := ref()
		proto := rn.Build()
		L := len(proto.Layers)
		dp, err := train.NewDataParallel(proto, &nn.SGD{LR: 0.01}, train.DataParallelConfig{
			Replicas: replicas, Build: rn.Build,
			Schedule: graph.ReverseFirstK(L, L/2), Sync: train.SyncLayerPriority,
			BucketBytes: -1,
		})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(dp.Close)
		var busy, exposed time.Duration
		op := func() {
			_, st, err := dp.Step(rn.X, rn.Labels)
			if err != nil {
				tb.Fatal(err)
			}
			busy += st.ReduceBusy
			exposed += st.ReduceExposed
		}
		op() // warm buffers and caches
		busy, exposed = 0, 0
		return op, func(b *testing.B) {
			b.ReportMetric(float64(busy.Nanoseconds())/float64(b.N), "reduce-busy-ns/op")
			b.ReportMetric(float64(exposed.Nanoseconds())/float64(b.N), "reduce-exposed-ns/op")
		}
	}
}

// trainPipeline measures one full microbatch pipeline-parallel training step
// of ref's net over the given number of stages and four micro-batches:
// sharded microbatch forwards, staged δO chain, out-of-order δW bubble
// filling, optimizer update. The custom metrics decompose the bubble:
// bubble-exposed-ns is stage time blocked with nothing to run,
// bubble-filled-ns is stage time spent on deferred δW inside bubbles. Filling
// shows as exposed(fill) < exposed(nofill); on a single-core host the stages
// serialize and parity is expected.
func trainPipeline(ref func() RefNet, stages int, sched train.PipeSchedule, fill bool) step {
	return func(tb testing.TB) (func(), func(*testing.B)) {
		rn := ref()
		pipe, err := train.NewPipeline(rn.Build(), &nn.SGD{LR: 0.01}, train.PipelineConfig{
			Stages: stages, MicroBatches: 4, Schedule: sched, Build: rn.Build, NoDWFill: !fill,
		})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(pipe.Close)
		var exposed, filled time.Duration
		op := func() {
			_, st, err := pipe.Step(rn.X, rn.Labels)
			if err != nil {
				tb.Fatal(err)
			}
			exposed += st.BubbleExposed()
			filled += st.BubbleFilled()
		}
		op() // warm retained activations, workspaces, lanes and shard views
		exposed, filled = 0, 0
		return op, func(b *testing.B) {
			b.ReportMetric(float64(exposed.Nanoseconds())/float64(b.N), "bubble-exposed-ns/op")
			b.ReportMetric(float64(filled.Nanoseconds())/float64(b.N), "bubble-filled-ns/op")
		}
	}
}

// refProfile is ProfileRefNets as a row set-up.
func refProfile(tb testing.TB) *calib.Profile {
	prof, err := ProfileRefNets()
	if err != nil {
		tb.Fatal(err)
	}
	return prof
}

// planColdMiss measures one full cold plan computation — normalize,
// fingerprint, queue, k search, encode — under the given search strategy.
// Each iteration perturbs max_memory_bytes by +i so every request misses the
// cache (1<<40 dwarfs any real activation footprint, so the clamp never binds
// and the planning work is identical across misses). The probes/op metric is
// the number of simulator probes the k search issued; BENCH files track the
// exact-vs-guided ratio.
func planColdMiss(search string) step {
	return func(tb testing.TB) (func(), func(*testing.B)) {
		svc := plansvc.New(plansvc.Options{Workers: 1, SearchWorkers: 1, Logger: quiet()})
		tb.Cleanup(svc.Close)
		ctx := context.Background()
		var probes, i int64
		return func() {
				resp, err := svc.Plan(ctx, &plansvc.PlanRequest{
					Model:          "resnet152",
					Cluster:        plansvc.ClusterSpec{Preset: "pub-a", GPUs: 32},
					Search:         search,
					MaxMemoryBytes: 1<<40 + i,
				})
				i++
				if err != nil {
					tb.Fatal(err)
				}
				if resp.SearchStats == nil {
					tb.Fatal("missing search stats")
				}
				probes += int64(resp.SearchStats.Probes)
			}, func(b *testing.B) {
				b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
			}
	}
}

// residentHit serves one loadgen body that is already in the node's LRU,
// in-process: through the bare service handler when route is "", otherwise
// through a shard of a three-member ring, on the first body of the loadgen
// mix that the ring routes that way (local-owner: the node owns the
// fingerprint; peer-cache: it does not, and answers from its own LRU).
func residentHit(route string) step {
	return func(tb testing.TB) (func(), func(*testing.B)) {
		svc := plansvc.New(plansvc.Options{Logger: quiet()})
		tb.Cleanup(svc.Close)
		peers := []string{"http://a", "http://b", "http://c"}
		sh, err := shardsvc.New(shardsvc.Options{Self: peers[0], Peers: peers, Service: svc, Logger: quiet()})
		if err != nil {
			tb.Fatal(err)
		}
		h := sh.Handler()
		if route == "" {
			h = svc.Handler()
		}
		var body []byte
		for i, routed := 0, false; !routed; i++ {
			body = plansvc.LoadSpec{}.RequestBody(i)
			var req plansvc.PlanRequest
			if err := json.Unmarshal(body, &req); err != nil {
				tb.Fatal(err)
			}
			resp, err := svc.Plan(context.Background(), &req) // resident from here on
			if err != nil {
				tb.Fatal(err)
			}
			owned := sh.Ring().Owner(resp.Fingerprint) == peers[0]
			routed = route == "" || owned == (route == shardsvc.RouteLocalOwner)
		}
		rd := bytes.NewReader(body)
		r := httptest.NewRequest(http.MethodPost, "/v1/plan", rd)
		return func() {
			rd.Reset(body)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			if got := w.Header().Get(shardsvc.HeaderRoute); w.Code != http.StatusOK || got != route {
				tb.Fatalf("status %d route %q, want 200 %q", w.Code, got, route)
			}
		}, nil
	}
}

// planServer starts a single-node plan service behind an HTTP test server.
func planServer(tb testing.TB) *httptest.Server {
	svc := plansvc.New(plansvc.Options{Logger: quiet()})
	srv := httptest.NewServer(svc.Handler())
	tb.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return srv
}

// runLoad drives spec's endpoints with the deterministic closed-loop load
// generator (the full zoo × 3 GPU counts, 4 clients, b.N requests) and
// attaches the run's throughput, latency distribution and cold-plan rate.
func runLoad(b *testing.B, spec plansvc.LoadSpec) {
	spec.Clients, spec.Requests = 4, b.N
	b.ReportAllocs()
	b.ResetTimer()
	rep, err := plansvc.RunLoad(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if rep.TransportErrors > 0 || rep.StatusCounts["200"] != b.N {
		b.Fatalf("load run failed: %+v", rep)
	}
	b.ReportMetric(rep.OpsPerSec, "ops/s")
	b.ReportMetric(rep.LatencyMsP50, "p50_ms")
	b.ReportMetric(rep.LatencyMsP95, "p95_ms")
	b.ReportMetric(rep.LatencyMsP99, "p99_ms")
	b.ReportMetric(rep.LatencyMsP999, "p999_ms")
	b.ReportMetric(rep.ColdPlanRate, "cold_rate")
}
