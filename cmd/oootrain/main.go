// Command oootrain trains a real model (CPU tensors, decoupled δO/δW
// autograd) under a chosen backward schedule, optionally verifying that the
// run is bit-for-bit identical to conventional backprop. The single-process
// run trains through the concurrent executor: the δO chain on the calling
// goroutine, each δW on a worker pool at its schedule position.
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
// bubbles (disable with -no-dw-fill), so -schedule and -k do not apply; the
// per-step report shows the exposed vs δW-filled bubble time, and the
// measured occupancy is cross-checked against the pipepar discrete-event
// simulator's prediction. -verify compares losses and weights bit for bit
// against the serial full-batch reference.
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

	j := buildArch(*arch, *seed)
	j.opt, j.steps = *optName, *steps
	L := len(j.build().Layers)
	psched, pmicro, err := validateConfig(runConfig{
		arch: *arch, schedule: *schedule, k: *k, steps: *steps,
		replicas: *replicas, stages: *stages, microbatches: *micro,
		pipeSched: *pSched, partition: *part, noDWFill: *noFill,
		memBudget: *memB,
	}, set, len(j.labels), L)
	if err != nil {
		fatal("%v", err)
	}
	sched := buildSchedule(*schedule, L, *k)
	if err := sched.Validate(L); err != nil {
		fatal("illegal schedule: %v", err)
	}

	if *stages > 1 {
		runPipeline(j, *stages, pmicro, psched, *part, *noFill, *verify)
		return
	}

	if *replicas > 1 {
		runDataParallel(j, sched, *replicas, mkSync(*syncName), *buckets, *verify)
		return
	}

	if *memB > 0 {
		runMemBudget(j, sched, *memB, *verify, L)
		return
	}

	net, opt := j.build(), mkOpt(*optName)
	exec := train.NewExecutor(train.ExecConcurrent, 0)
	fmt.Printf("arch=%s schedule=%s optimizer=%s steps=%d\n", *arch, *schedule, *optName, *steps)
	run := j.run("training", net, func(i int) (float64, error) {
		loss, err := exec.Step(net, j.x, j.labels, sched, opt)
		if err == nil {
			fmt.Printf("step %2d  loss %.6f\n", i, loss)
		}
		return loss, err
	})
	exec.Close()
	fmt.Println(lossSpan(run))

	if *verify {
		verifyRun("conventional", run, j.reference())
	}
}

// job is what every mode trains: the arch's network constructor and batch, the
// optimizer and the step count.
type job struct {
	build  func() *train.Network
	x      *tensor.Tensor
	labels []int
	opt    string
	steps  int
}

// run trains net through step for the job's steps, exiting 1 if a step
// fails; what names the run in that message.
func (j job) run(what string, net *train.Network, step func(i int) (float64, error)) train.Trajectory {
	tr, err := train.TrainSteps(net, j.steps, step)
	if err != nil {
		fatal("%s %v", what, err)
	}
	return tr
}

// reference trains a fresh network with the plain conventional-order step:
// the bitwise reference of the single-process, checkpointed and pipeline
// runs.
func (j job) reference() train.Trajectory {
	net, opt := j.build(), mkOpt(j.opt)
	sched := graph.Conventional(len(net.Layers))
	return j.run("reference", net, func(int) (float64, error) {
		return train.Step(net, j.x, j.labels, sched, opt)
	})
}

// verifyRun prints how run compares with the reference ref, named against,
// and exits 1 unless both trained bit-identically.
func verifyRun(against string, run, ref train.Trajectory) {
	losses, weights := run.Identical(ref)
	fmt.Printf("verify vs %s: losses identical=%v weights identical=%v\n", against, losses, weights)
	if !losses || !weights {
		os.Exit(1)
	}
}

// lossSpan is the report line of a run's first and last loss.
func lossSpan(tr train.Trajectory) string {
	return fmt.Sprintf("loss: %.6f -> %.6f", tr.Losses[0], tr.Losses[len(tr.Losses)-1])
}

// runDataParallel trains with the overlapped data-parallel engine, printing
// the per-step overlap report, and optionally verifies against the serial
// reference reduce.
func runDataParallel(j job, sched graph.BackwardSchedule, replicas int,
	sync train.SyncSchedule, bucketBytes int64, verify bool) {
	cfg := train.DataParallelConfig{
		Replicas: replicas, Build: j.build, Schedule: sched, Sync: sync, BucketBytes: bucketBytes,
	}
	net := j.build()
	dp, err := train.NewDataParallel(net, mkOpt(j.opt), cfg)
	if err != nil {
		fatal("data-parallel: %v", err)
	}
	defer dp.Close()

	fmt.Printf("data-parallel: replicas=%d sync=%v buckets=%d\n", dp.Replicas(), sync, len(dp.Plan()))
	for i, b := range dp.Plan() {
		fmt.Printf("  bucket %d: layers=%v elems=%d prio=%d\n", i, b.Layers, b.Elems, b.Prio)
	}

	var busyTot, exposedTot, backTot time.Duration
	run := j.run("training", net, func(i int) (float64, error) {
		loss, st, err := dp.Step(j.x, j.labels)
		if err != nil {
			return 0, err
		}
		busyTot += st.ReduceBusy
		exposedTot += st.ReduceExposed
		backTot += st.Backward
		fmt.Printf("step %2d  loss %.6f  fwd %8s  bwd %8s  reduce-busy %8s  reduce-exposed %8s\n",
			i, loss, st.Forward.Round(time.Microsecond), st.Backward.Round(time.Microsecond),
			st.ReduceBusy.Round(time.Microsecond), st.ReduceExposed.Round(time.Microsecond))
		return loss, nil
	})
	fmt.Println(lossSpan(run))
	overlapped := max(busyTot-exposedTot, 0)
	fmt.Printf("overlap: backward %s  reduce-busy %s  reduce-exposed %s  (%.0f%% of reduction hidden behind backward)\n",
		backTot.Round(time.Microsecond), busyTot.Round(time.Microsecond), exposedTot.Round(time.Microsecond),
		100*float64(overlapped)/float64(max(busyTot, 1)))

	if verify {
		ref := j.build()
		rdp, err := train.NewDataParallel(ref, mkOpt(j.opt), cfg)
		if err != nil {
			fatal("reference engine: %v", err)
		}
		defer rdp.Close()
		verifyRun("serial reference reduce", run, j.run("reference", ref, func(int) (float64, error) {
			return rdp.ReferenceStep(j.x, j.labels)
		}))
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

// buildArch returns the job of an -arch: its network constructor (weights drawn
// from seed) and its batch (drawn from seed too).
func buildArch(arch string, seed uint64) job {
	switch arch {
	case "mlp":
		x, labels := data.Vectors(seed, 32, 16, 4)
		return job{build: func() *train.Network { return train.MLPNet(seed, 16, 32, 2, 4) }, x: x, labels: labels}
	case "cnn":
		x, labels := data.Images(seed, 32, 1, 9, 9, 4)
		return job{build: func() *train.Network { return train.Conv9Net(seed, 4) }, x: x, labels: labels}
	case "token":
		x, labels := train.TokenBatch(seed, 24, 8, 50, 3)
		return job{build: func() *train.Network { return train.TokenNet(seed, 50, 12, 8, 16, 3) }, x: x, labels: labels}
	default:
		fatal("unknown arch %q", arch)
		return job{}
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
