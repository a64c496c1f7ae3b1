// Command oootrain trains a real model (CPU tensors, decoupled δO/δW
// autograd) under a chosen backward schedule, optionally verifying that the
// run is bit-for-bit identical to conventional backprop.
//
// With -replicas N > 1 the run is data-parallel: each step's batch is
// sharded across N model replicas, their backward passes run concurrently,
// and gradient buckets are reduced overlapped with the still-running
// backward work (drain order chosen by -sync). The per-step report shows the
// overlap accounting: reduce-busy is total reduction time, reduce-exposed
// the part that extended past the last replica's backward — the
// non-overlapped remainder. -verify then compares against the serial
// reference reduce bit for bit.
//
// With -stages S > 1 the run is pipeline-parallel: the network is split into
// S contiguous stages, each step's batch into -microbatches microbatches, and
// the stages execute concurrently under a GPipe trapezoid or 1F1B schedule.
// Each stage defers its δW work and runs it out of order inside pipeline
// bubbles (disable with -no-dw-fill); the per-step report shows the exposed
// vs δW-filled bubble time, and the measured occupancy is cross-checked
// against the pipepar discrete-event simulator's prediction. -verify compares
// losses and weights bit for bit against the serial full-batch reference.
//
// With -mem-budget B > 0 the run trains under a peak live-byte budget: every
// activation-checkpoint interval is probed with one throwaway step, the
// cheapest interval (least recompute) whose ledger peak fits B is chosen, and
// the run proceeds with train.StepRecompute at that interval. Checkpointed
// steps are bitwise identical to plain ones, so -verify still compares
// against the conventional reference bit for bit.
//
// Usage:
//
//	oootrain -arch cnn -schedule fastforward -steps 20 -opt momentum -verify
//	oootrain -arch token -schedule reverse-k -k 4 -opt adam
//	oootrain -arch mlp -replicas 4 -sync layer-priority -verify
//	oootrain -arch mlp -stages 3 -microbatches 6 -pipe-sched 1f1b -verify
//	oootrain -arch mlp -mem-budget 250000 -verify
package main

import (
	"flag"
	"fmt"
	"os"

	"time"

	"oooback/internal/core"
	"oooback/internal/data"
	"oooback/internal/graph"
	"oooback/internal/nn"
	"oooback/internal/tensor"
	"oooback/internal/train"
)

func main() {
	var (
		arch     = flag.String("arch", "mlp", "architecture: mlp|cnn|token")
		schedule = flag.String("schedule", "fastforward", "backward schedule: conventional|fastforward|reverse-k")
		k        = flag.Int("k", 3, "k for reverse-k")
		steps    = flag.Int("steps", 15, "training steps")
		optName  = flag.String("opt", "momentum", "optimizer: sgd|momentum|rmsprop|adam")
		seed     = flag.Uint64("seed", 42, "init/data seed")
		verify   = flag.Bool("verify", false, "also run conventional backprop and compare bit-for-bit")
		replicas = flag.Int("replicas", 1, "data-parallel replicas (> 1 enables overlapped gradient reduction)")
		syncName = flag.String("sync", "layer-priority", "bucket drain order with -replicas: completion|layer-priority")
		buckets  = flag.Int64("buckets", 0, "gradient bucket bytes (0 = default, < 0 = one bucket per layer)")
		stages   = flag.Int("stages", 1, "pipeline stages (> 1 enables microbatch pipeline parallelism)")
		micro    = flag.Int("microbatches", 0, "microbatches per pipeline step (0 = stages)")
		pSched   = flag.String("pipe-sched", "gpipe", "pipeline discipline with -stages: gpipe|1f1b")
		part     = flag.String("partition", "even", "stage split with -stages: even|balanced (balanced profiles per-layer costs first)")
		noFill   = flag.Bool("no-dw-fill", false, "disable out-of-order δW bubble filling in the pipeline")
		memB     = flag.Int64("mem-budget", 0, "peak live-byte budget: picks the cheapest activation-checkpoint interval that fits and trains with recompute")
	)
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	build, x, labels, L := buildArch(*arch, *seed)
	psched, pmicro, err := validateConfig(runConfig{
		arch: *arch, schedule: *schedule, k: *k, steps: *steps,
		replicas: *replicas, stages: *stages, microbatches: *micro,
		pipeSched: *pSched, partition: *part, noDWFill: *noFill,
		memBudget: *memB,
	}, set, len(labels), L)
	if err != nil {
		fatal("%v", err)
	}
	sched := buildSchedule(*schedule, L, *k)
	if err := sched.Validate(L); err != nil {
		fatal("illegal schedule: %v", err)
	}

	if *stages > 1 {
		runPipeline(build, x, labels, *optName, *steps, *stages, pmicro, psched, *part, *noFill, *verify)
		return
	}

	if *replicas > 1 {
		runDataParallel(build, x, labels, sched, *optName, *steps, *replicas, mkSync(*syncName), *buckets, *verify)
		return
	}

	if *memB > 0 {
		runMemBudget(build, x, labels, sched, *optName, *steps, *memB, *verify, L)
		return
	}

	losses, weights := runTraining(build, x, labels, sched, mkOpt(*optName), *steps)
	fmt.Printf("arch=%s schedule=%s optimizer=%s steps=%d\n", *arch, *schedule, *optName, *steps)
	for i, l := range losses {
		fmt.Printf("step %2d  loss %.6f\n", i, l)
	}
	fmt.Printf("loss: %.6f -> %.6f\n", losses[0], losses[len(losses)-1])

	if *verify {
		refLoss, refW := runTraining(build, x, labels, graph.Conventional(L), mkOpt(*optName), *steps)
		same := train.SnapshotsEqual(weights, refW)
		lossSame := true
		for i := range losses {
			if losses[i] != refLoss[i] {
				lossSame = false
			}
		}
		fmt.Printf("verify vs conventional: losses identical=%v weights identical=%v\n", lossSame, same)
		if !same || !lossSame {
			os.Exit(1)
		}
	}
}

// runDataParallel trains with the overlapped data-parallel engine, printing
// the per-step overlap report, and optionally verifies against the serial
// reference reduce.
func runDataParallel(build func() *train.Network, x *tensor.Tensor, labels []int,
	sched graph.BackwardSchedule, optName string, steps, replicas int,
	sync train.SyncSchedule, bucketBytes int64, verify bool) {
	net := build()
	dp, err := train.NewDataParallel(net, mkOpt(optName), train.DataParallelConfig{
		Replicas: replicas, Build: build, Schedule: sched, Sync: sync, BucketBytes: bucketBytes,
	})
	if err != nil {
		fatal("data-parallel: %v", err)
	}
	defer dp.Close()

	fmt.Printf("data-parallel: replicas=%d sync=%v buckets=%d\n", dp.Replicas(), sync, len(dp.Plan()))
	for i, b := range dp.Plan() {
		fmt.Printf("  bucket %d: layers=%v elems=%d prio=%d\n", i, b.Layers, b.Elems, b.Prio)
	}

	var losses []float64
	var busyTot, exposedTot, backTot time.Duration
	for i := 0; i < steps; i++ {
		loss, st, err := dp.Step(x, labels)
		if err != nil {
			fatal("training step: %v", err)
		}
		losses = append(losses, loss)
		busyTot += st.ReduceBusy
		exposedTot += st.ReduceExposed
		backTot += st.Backward
		fmt.Printf("step %2d  loss %.6f  fwd %8s  bwd %8s  reduce-busy %8s  reduce-exposed %8s\n",
			i, loss, st.Forward.Round(time.Microsecond), st.Backward.Round(time.Microsecond),
			st.ReduceBusy.Round(time.Microsecond), st.ReduceExposed.Round(time.Microsecond))
	}
	fmt.Printf("loss: %.6f -> %.6f\n", losses[0], losses[len(losses)-1])
	overlapped := busyTot - exposedTot
	if overlapped < 0 {
		overlapped = 0
	}
	fmt.Printf("overlap: backward %s  reduce-busy %s  reduce-exposed %s  (%.0f%% of reduction hidden behind backward)\n",
		backTot.Round(time.Microsecond), busyTot.Round(time.Microsecond), exposedTot.Round(time.Microsecond),
		100*float64(overlapped)/float64(max(busyTot, 1)))

	if verify {
		ref := build()
		rdp, err := train.NewDataParallel(ref, mkOpt(optName), train.DataParallelConfig{
			Replicas: replicas, Build: build, Schedule: sched, Sync: sync, BucketBytes: bucketBytes,
		})
		if err != nil {
			fatal("reference engine: %v", err)
		}
		defer rdp.Close()
		lossSame := true
		for i := 0; i < steps; i++ {
			rl, err := rdp.ReferenceStep(x, labels)
			if err != nil {
				fatal("reference step: %v", err)
			}
			if rl != losses[i] {
				lossSame = false
			}
		}
		same := train.SnapshotsEqual(train.ParamSnapshot(net), train.ParamSnapshot(ref))
		fmt.Printf("verify vs serial reference reduce: losses identical=%v weights identical=%v\n", lossSame, same)
		if !same || !lossSame {
			os.Exit(1)
		}
	}
}

func mkSync(name string) train.SyncSchedule {
	switch name {
	case "completion":
		return train.SyncCompletion
	case "layer-priority":
		return train.SyncLayerPriority
	default:
		fatal("unknown sync schedule %q", name)
		return 0
	}
}

func runTraining(build func() *train.Network, x *tensor.Tensor, labels []int,
	sched graph.BackwardSchedule, opt nn.Optimizer, steps int) ([]float64, map[string]*tensor.Tensor) {
	net := build()
	var losses []float64
	for i := 0; i < steps; i++ {
		loss, err := train.Step(net, x, labels, sched, opt)
		if err != nil {
			fatal("training step: %v", err)
		}
		losses = append(losses, loss)
	}
	return losses, train.ParamSnapshot(net)
}

func buildArch(arch string, seed uint64) (func() *train.Network, *tensor.Tensor, []int, int) {
	switch arch {
	case "mlp":
		x, labels := data.Vectors(seed, 32, 16, 4)
		build := func() *train.Network {
			rng := tensor.NewRNG(seed)
			return &train.Network{Layers: []nn.Layer{
				nn.NewDense("fc1", 16, 32, rng),
				nn.NewReLU("relu1"),
				nn.NewDense("fc2", 32, 32, rng),
				nn.NewReLU("relu2"),
				nn.NewDense("fc3", 32, 4, rng),
			}}
		}
		return build, x, labels, 5
	case "cnn":
		x, labels := data.Images(seed, 32, 1, 9, 9, 4)
		build := func() *train.Network {
			rng := tensor.NewRNG(seed)
			return &train.Network{Layers: []nn.Layer{
				nn.NewConv2D("conv1", 8, 1, 3, 3, rng),
				nn.NewReLU("relu1"),
				nn.NewConv2D("conv2", 8, 8, 2, 2, rng),
				nn.NewReLU("relu2"),
				nn.NewMaxPool2("pool"),
				nn.NewFlatten("flat"),
				nn.NewDense("fc", 8*3*3, 4, rng),
			}}
		}
		return build, x, labels, 7
	case "token":
		const seqLen, vocab, classes = 8, 50, 3
		seqs := data.Tokens(seed, 24, seqLen, vocab)
		x := tensor.New(24 * seqLen)
		labels := make([]int, 24)
		for i, s := range seqs {
			sum := 0
			for j, tok := range s {
				x.Data[i*seqLen+j] = float64(tok)
				sum += tok
			}
			labels[i] = sum % classes
		}
		build := func() *train.Network {
			rng := tensor.NewRNG(seed)
			return &train.Network{Layers: []nn.Layer{
				nn.NewEmbedding("emb", vocab, 12, rng),
				nn.NewLayerNorm("ln", 12, rng),
				nn.NewMeanPool1D("pool", seqLen),
				nn.NewDense("fc1", 12, 16, rng),
				nn.NewReLU("relu"),
				nn.NewDense("fc2", 16, classes, rng),
			}}
		}
		return build, x, labels, 6
	default:
		fatal("unknown arch %q", arch)
		return nil, nil, nil, 0
	}
}

func buildSchedule(name string, L, k int) graph.BackwardSchedule {
	switch name {
	case "conventional":
		return graph.Conventional(L)
	case "fastforward":
		return core.FastForward(L)
	case "reverse-k":
		return graph.ReverseFirstK(L, k)
	default:
		fatal("unknown schedule %q", name)
		return nil
	}
}

func mkOpt(name string) nn.Optimizer {
	switch name {
	case "sgd":
		return &nn.SGD{LR: 0.05}
	case "momentum":
		return &nn.Momentum{LR: 0.02, Beta: 0.9}
	case "rmsprop":
		return &nn.RMSProp{LR: 0.005, Decay: 0.9}
	case "adam":
		return &nn.Adam{LR: 0.005}
	default:
		fatal("unknown optimizer %q", name)
		return nil
	}
}

// fatal reports an error and exits 1, like a failed -verify; the flag
// package keeps exit 2 for flags it cannot parse.
func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "oootrain: "+format+"\n", args...)
	os.Exit(1)
}
