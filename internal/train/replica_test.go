package train

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"oooback/internal/data"
	"oooback/internal/graph"
	"oooback/internal/nn"
	"oooback/internal/tensor"
)

// dpSchedules is the schedule pair the data-parallel differential suite runs:
// conventional and reverse first-k (the paper's two sync-relevant regimes).
func dpSchedules(L int) []graph.BackwardSchedule {
	return []graph.BackwardSchedule{
		graph.Conventional(L),
		graph.ReverseFirstK(L, (L+1)/2),
	}
}

// TestDataParallelDifferential is the randomized differential suite of the
// issue: every model kind × schedule × sync schedule × replica count ×
// GOMAXPROCS, asserting that the concurrent overlapped engine's whole
// trajectory — per-step losses, final weights, optimizer state — is bitwise
// identical to the serial reference reduce. Run under -race this is also the
// engine's data-race proof.
func TestDataParallelDifferential(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	const steps = 3
	for _, gmp := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(gmp)
		for _, tc := range execCases() {
			L := len(tc.build().Layers)
			for si, sched := range dpSchedules(L) {
				for yi, sync := range []SyncSchedule{SyncCompletion, SyncLayerPriority} {
					// Alternate bucket granularity: one bucket per layer, and
					// merged multi-layer buckets.
					bb := int64(-1)
					if yi == 1 {
						bb = 4 << 10
					}
					for _, N := range []int{1, 2, 4} {
						label := fmt.Sprintf("gomaxprocs=%d %s sched=%d sync=%v n=%d", gmp, tc.name, si, sync, N)
						run := func(ref bool) ([]float64, map[string]*tensor.Tensor, map[string][][]float64) {
							net := tc.build()
							opt := &nn.Momentum{LR: 0.05, Beta: 0.9}
							dp, err := NewDataParallel(net, opt, DataParallelConfig{
								Replicas: N, Build: tc.build, Schedule: sched, Sync: sync, BucketBytes: bb,
							})
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							defer dp.Close()
							losses := make([]float64, 0, steps)
							for s := 0; s < steps; s++ {
								var l float64
								if ref {
									l, err = dp.ReferenceStep(tc.x, tc.labels)
								} else {
									l, _, err = dp.Step(tc.x, tc.labels)
								}
								if err != nil {
									t.Fatalf("%s step %d: %v", label, s, err)
								}
								losses = append(losses, l)
							}
							return losses, ParamSnapshot(net), nn.StateSnapshot(opt, net.Params())
						}
						refLoss, refW, refS := run(true)
						gotLoss, gotW, gotS := run(false)
						for s := range refLoss {
							if refLoss[s] != gotLoss[s] {
								t.Fatalf("%s: step %d loss %v (concurrent) != %v (reference)",
									label, s, gotLoss[s], refLoss[s])
							}
						}
						if !SnapshotsEqual(refW, gotW) {
							t.Fatalf("%s: final weights diverged from serial reference reduce", label)
						}
						if !nn.StateSnapshotsEqual(refS, gotS) {
							t.Fatalf("%s: optimizer state diverged from serial reference reduce", label)
						}
					}
				}
			}
		}
	}
}

// TestDataParallelSingleReplicaMatchesPlainStep: with one replica the engine
// degenerates to ordinary single-network training — the whole trajectory is
// bit-identical to Executor.Step on the same net, batch and schedule.
func TestDataParallelSingleReplicaMatchesPlainStep(t *testing.T) {
	x, labels := data.Vectors(3, 12, 16, 3)
	build := func() *Network { return MLPNet(11, 16, 24, 3, 3) }
	sched := graph.ReverseFirstK(len(build().Layers), 2)
	const steps = 4

	plain := build()
	plainOpt := &nn.Momentum{LR: 0.05, Beta: 0.9}
	e := NewExecutor(ExecSerial, 0)
	plainLosses := make([]float64, steps)
	for s := 0; s < steps; s++ {
		l, err := e.Step(plain, x, labels, sched, plainOpt)
		if err != nil {
			t.Fatal(err)
		}
		plainLosses[s] = l
	}

	dpNet := build()
	dpOpt := &nn.Momentum{LR: 0.05, Beta: 0.9}
	dp, err := NewDataParallel(dpNet, dpOpt, DataParallelConfig{Replicas: 1, Schedule: sched})
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	for s := 0; s < steps; s++ {
		l, _, err := dp.Step(x, labels)
		if err != nil {
			t.Fatal(err)
		}
		if l != plainLosses[s] {
			t.Fatalf("step %d loss %v, plain %v", s, l, plainLosses[s])
		}
	}
	if !SnapshotsEqual(ParamSnapshot(plain), ParamSnapshot(dpNet)) {
		t.Fatal("single-replica DataParallel diverged from plain training")
	}
	if dp.Net() != dpNet {
		t.Fatal("Net() must return the prototype network")
	}
}

// TestReducePlanBuckets: bucket assignment covers exactly the param-bearing
// layers, per-layer granularity under bucketBytes < 0, and the two sync
// schedules order drains as documented.
func TestReducePlanBuckets(t *testing.T) {
	net := MLPNet(11, 16, 24, 4, 3) // Dense/ReLU alternation: paramless layers interleaved
	L := len(net.Layers)
	a, err := graph.Analyze(L, graph.Conventional(L))
	if err != nil {
		t.Fatal(err)
	}

	paramLayers := 0
	for _, l := range net.Layers {
		if len(l.Params()) > 0 {
			paramLayers++
		}
	}

	perLayer := newReducePlan(net, a, SyncLayerPriority, -1)
	if len(perLayer.buckets) != paramLayers {
		t.Fatalf("per-layer plan has %d buckets, want %d", len(perLayer.buckets), paramLayers)
	}
	seen := map[int]bool{}
	for bi, b := range perLayer.buckets {
		if len(b.layers) != 1 {
			t.Fatalf("bucket %d holds layers %v, want exactly one", bi, b.layers)
		}
		layer := b.layers[0]
		if seen[layer] {
			t.Fatalf("layer %d assigned twice", layer)
		}
		seen[layer] = true
		if b.prio != layer {
			t.Fatalf("layer-priority bucket %d prio %d, want its layer %d", bi, b.prio, layer)
		}
		if perLayer.layerBucket[layer] != bi {
			t.Fatalf("layerBucket[%d] = %d, want %d", layer, perLayer.layerBucket[layer], bi)
		}
		if b.elems == 0 {
			t.Fatalf("bucket %d has no elements", bi)
		}
	}
	for layer := 1; layer <= L; layer++ {
		hasParams := len(net.Layers[layer-1].Params()) > 0
		if hasParams != (perLayer.layerBucket[layer] >= 0) {
			t.Fatalf("layer %d params=%v but layerBucket=%d", layer, hasParams, perLayer.layerBucket[layer])
		}
	}

	// Completion order: under the conventional schedule δW runs L→1, so
	// sorting per-layer buckets by prio must yield descending layer order.
	compl := newReducePlan(net, a, SyncCompletion, -1)
	layers := make([]int, len(compl.buckets))
	for i, b := range compl.buckets {
		layers[i] = b.layers[0]
	}
	sort.Slice(layers, func(i, j int) bool {
		var pi, pj int
		for _, b := range compl.buckets {
			if b.layers[0] == layers[i] {
				pi = b.prio
			}
			if b.layers[0] == layers[j] {
				pj = b.prio
			}
		}
		return pi < pj
	})
	for i := 1; i < len(layers); i++ {
		if layers[i-1] < layers[i] {
			t.Fatalf("completion drain order %v not descending by layer under conventional schedule", layers)
		}
	}

	// Merged buckets: a huge bucketBytes folds everything into one bucket.
	merged := newReducePlan(net, a, SyncCompletion, 1<<40)
	if len(merged.buckets) != 1 {
		t.Fatalf("merged plan has %d buckets, want 1", len(merged.buckets))
	}
	if len(merged.buckets[0].layers) != paramLayers {
		t.Fatalf("merged bucket holds %d layers, want %d", len(merged.buckets[0].layers), paramLayers)
	}
}

// TestDataParallelPlanAndStats: Plan() mirrors the internal buckets and Step
// reports a sane timing decomposition.
func TestDataParallelPlanAndStats(t *testing.T) {
	x, labels := data.Vectors(3, 12, 16, 3)
	build := func() *Network { return MLPNet(11, 16, 24, 3, 3) }
	dp, err := NewDataParallel(build(), &nn.SGD{LR: 0.05}, DataParallelConfig{
		Replicas: 2, Build: build, BucketBytes: -1, Sync: SyncLayerPriority,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()

	if dp.Replicas() != 2 {
		t.Fatalf("Replicas() = %d, want 2", dp.Replicas())
	}
	plan := dp.Plan()
	if len(plan) == 0 {
		t.Fatal("empty plan")
	}
	totalElems := 0
	for _, b := range plan {
		totalElems += b.Elems
	}
	wantElems := 0
	for _, p := range dp.Net().Params() {
		wantElems += len(p.Grad.Data)
	}
	if totalElems != wantElems {
		t.Fatalf("plan covers %d gradient elements, params hold %d", totalElems, wantElems)
	}

	loss, st, err := dp.Step(x, labels)
	if err != nil {
		t.Fatal(err)
	}
	if loss <= 0 {
		t.Fatalf("loss = %v, want > 0 at init", loss)
	}
	if st.Replicas != 2 || st.Buckets != len(plan) {
		t.Fatalf("stats %+v: want Replicas=2 Buckets=%d", st, len(plan))
	}
	if st.Forward <= 0 || st.Backward <= 0 {
		t.Fatalf("stats %+v: phase times must be positive", st)
	}
	if st.ReduceBusy < 0 || st.ReduceExposed < 0 {
		t.Fatalf("stats %+v: negative reduce times", st)
	}
}

// TestDataParallelErrors: config and batch validation.
func TestDataParallelErrors(t *testing.T) {
	build := func() *Network { return MLPNet(11, 16, 24, 2, 3) }

	dp, err := NewDataParallel(build(), &nn.SGD{LR: 0.1}, DataParallelConfig{Replicas: 2, Build: build})
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()

	// A batch smaller than the replica count cannot be sharded: it must take
	// the deterministic single-replica fallback, not fail.
	x, labels := data.Vectors(3, 1, 16, 3)
	if _, st, err := dp.Step(x, labels); err != nil {
		t.Fatalf("short batch: %v", err)
	} else if st.Replicas != 1 {
		t.Fatalf("short batch ran on %d replicas, want 1", st.Replicas)
	}

	_, labels2 := data.Vectors(3, 4, 16, 3)
	bad := &tensor.Tensor{Shape: []int{7, 16}, Data: make([]float64, 7*16)}
	if _, _, err := dp.Step(bad, labels2); err == nil {
		t.Fatal("leading dim not a multiple of examples accepted")
	}
}

// TestDataParallelBackwardReduceWarmZeroAllocs pins the acceptance criterion
// on the one-command step: once warm, a whole step — the command and
// acknowledgement per replica, forward, loss, backward, bucket publication,
// tree reduction, update and broadcast — performs zero allocations, and its
// stats come from the replicas' own clocks.
func TestDataParallelBackwardReduceWarmZeroAllocs(t *testing.T) {
	x, labels := data.Vectors(3, 12, 16, 3)
	build := func() *Network { return MLPNet(11, 16, 24, 3, 3) }
	sched := graph.ReverseFirstK(len(build().Layers), 2)
	dp, err := NewDataParallel(build(), &nn.SGD{LR: 0.01}, DataParallelConfig{
		Replicas: 2, Build: build, Schedule: sched, Sync: SyncLayerPriority, BucketBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	// Two full steps warm the retained buffers, workspace bins and analysis
	// caches on every replica.
	for i := 0; i < 2; i++ {
		if _, _, err := dp.Step(x, labels); err != nil {
			t.Fatal(err)
		}
	}
	var st StepStats
	allocs := testing.AllocsPerRun(10, func() {
		var err error
		if _, st, err = dp.Step(x, labels); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm data-parallel step allocates %v per step, want 0", allocs)
	}
	if st.Forward <= 0 || st.Backward <= 0 || st.ReduceBusy <= 0 {
		t.Fatalf("step stats not filled: %+v", st)
	}
	for _, rep := range dp.crew.lanes {
		if fwd, bwd := rep.phases(); fwd > st.Forward || bwd > st.Backward {
			t.Fatalf("replica %d took %v/%v, step reports %v/%v: want the slowest replica's", rep.id, fwd, bwd, st.Forward, st.Backward)
		}
	}
}

// TestExecutorReportsEachDWOnce: every layer's δW is reported exactly once per
// pass with the right index, in both executor modes — on whichever goroutine
// ran it — and a detached observer stays silent.
func TestExecutorReportsEachDWOnce(t *testing.T) {
	net := MLPNet(11, 16, 24, 3, 3)
	L := len(net.Layers)
	x, labels := data.Vectors(3, 8, 16, 3)
	logits := net.Forward(x)
	_, lossGrad := nn.SoftmaxCrossEntropy(logits, labels)
	sched := graph.ReverseFirstK(L, L/2)

	for _, mode := range []ExecMode{ExecSerial, ExecConcurrent} {
		t.Run(mode.String(), func(t *testing.T) {
			e := NewExecutor(mode, 2)
			defer e.Close()
			// Collect via channel: concurrent mode reports from pool workers.
			seen := make(chan int, L)
			e.Observe(func(ev OpEvent) {
				if ev.Kind == OpDW {
					seen <- ev.Layer
				}
			})
			if _, err := e.Backward(net, lossGrad, sched); err != nil {
				t.Fatal(err)
			}
			e.Observe(nil)
			close(seen)
			counts := make([]int, L+1)
			for layer := range seen {
				counts[layer]++
			}
			for i := 1; i <= L; i++ {
				if counts[i] != 1 {
					t.Fatalf("layer %d δW reported %d times, want 1", i, counts[i])
				}
			}
			if _, err := e.Backward(net, lossGrad, sched); err != nil {
				t.Fatal(err) // detached: must not send on the closed channel
			}
		})
	}
}
