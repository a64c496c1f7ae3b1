package train

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"oooback/internal/data"
	"oooback/internal/graph"
	"oooback/internal/nn"
	"oooback/internal/tensor"
	"oooback/internal/trace"
)

// execCase is one model + batch the differential suite exercises.
type execCase struct {
	name   string
	build  func() *Network
	x      *tensor.Tensor
	labels []int
}

func execCases() []execCase {
	mlpX, mlpY := data.Vectors(3, 12, 16, 3)
	cnvX, cnvY := data.Images(5, 6, 1, 10, 10, 4)
	nlpX, nlpY := TokenBatch(7, 12, 8, 40, 3)
	return []execCase{
		{"mlp", func() *Network { return MLPNet(11, 16, 24, 3, 3) }, mlpX, mlpY},
		{"conv", func() *Network { return ConvNet(13, 10, 4, 4) }, cnvX, cnvY},
		{"nlp", func() *Network { return TokenNet(17, 40, 12, 8, 16, 3) }, nlpX, nlpY},
	}
}

// caseSchedules returns the schedule battery for an L-layer network:
// conventional, every reverse first-k, and a handful of random legal orders.
func caseSchedules(L int, rng *rand.Rand) []graph.BackwardSchedule {
	out := []graph.BackwardSchedule{graph.Conventional(L)}
	for k := 0; k <= L; k++ {
		out = append(out, graph.ReverseFirstK(L, k))
	}
	for i := 0; i < 6; i++ {
		out = append(out, randomLegalSchedule(L, rng))
	}
	return out
}

// TestConcurrentExecutorDifferential is the randomized differential suite the
// issue asks for: many models × schedules × GOMAXPROCS values, asserting
// bit-identical gradients and equal PeakLiveGrads between Network.Backward
// and the concurrent executor. One executor instance serves every case, so
// cross-network state reuse is covered too.
func TestConcurrentExecutorDifferential(t *testing.T) {
	e := NewExecutor(ExecConcurrent, 3)
	defer e.Close()
	rng := rand.New(rand.NewSource(99))
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, gmp := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(gmp)
		for _, tc := range execCases() {
			net := tc.build()
			L := len(net.Layers)
			logits := net.Forward(tc.x)
			_, lossGrad := nn.SoftmaxCrossEntropy(logits, tc.labels)
			for si, sched := range caseSchedules(L, rng) {
				label := fmt.Sprintf("gomaxprocs=%d %s sched=%d", gmp, tc.name, si)

				net.ZeroGrads()
				serialStats, err := net.Backward(lossGrad, sched)
				if err != nil {
					t.Fatalf("%s: serial: %v", label, err)
				}
				want := GradSnapshot(net)

				net.ZeroGrads()
				concStats, err := e.Backward(net, lossGrad, sched)
				if err != nil {
					t.Fatalf("%s: concurrent: %v", label, err)
				}
				got := GradSnapshot(net)

				if !SnapshotsEqual(want, got) {
					t.Fatalf("%s: concurrent gradients differ from serial", label)
				}
				if concStats.PeakLiveGrads != serialStats.PeakLiveGrads {
					t.Fatalf("%s: PeakLiveGrads %d (concurrent) != %d (serial)",
						label, concStats.PeakLiveGrads, serialStats.PeakLiveGrads)
				}
			}
		}
	}
}

// TestExecutorSerialModeMatchesNetworkBackward: a serial executor lands on the
// plain walk's gradients and stats.
func TestExecutorSerialModeMatchesNetworkBackward(t *testing.T) {
	net := mlp(21, 8, 3)
	x, labels := data.Vectors(23, 8, 8, 3)
	logits := net.Forward(x)
	_, lossGrad := nn.SoftmaxCrossEntropy(logits, labels)
	sched := graph.ReverseFirstK(len(net.Layers), 3)

	net.ZeroGrads()
	wantStats, err := net.Backward(lossGrad, sched)
	if err != nil {
		t.Fatal(err)
	}
	want := GradSnapshot(net)

	e := NewExecutor(ExecSerial, 0)
	net.ZeroGrads()
	st, err := e.Backward(net, lossGrad, sched)
	if err != nil {
		t.Fatal(err)
	}
	if st != wantStats {
		t.Fatalf("stats %+v, want %+v", st, wantStats)
	}
	if !SnapshotsEqual(want, GradSnapshot(net)) {
		t.Fatal("serial-mode executor gradients differ")
	}
	e.Close() // no-op, must not panic
}

// TestFitWithConcurrentExecutor: a whole training trajectory (losses and
// final weights) through the concurrent executor is identical to train.Step's.
func TestFitWithConcurrentExecutor(t *testing.T) {
	x, labels := data.Vectors(31, 24, 10, 3)
	type stepFn func(*Network, *tensor.Tensor, []int, graph.BackwardSchedule, nn.Optimizer) (float64, error)
	run := func(step stepFn) ([]float64, map[string]*tensor.Tensor) {
		net := MLPNet(41, 10, 16, 2, 3)
		opt := &nn.Momentum{LR: 0.05, Beta: 0.9}
		sched := graph.ReverseFirstK(len(net.Layers), 3)
		losses, err := fit(func(b Batch) (float64, error) {
			return step(net, b.X, b.Labels, sched, opt)
		}, x, labels, fitConfig{Epochs: 3, BatchSize: 8, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return losses, ParamSnapshot(net)
	}
	serialLoss, serialW := run(Step)
	e := NewExecutor(ExecConcurrent, 2)
	defer e.Close()
	concLoss, concW := run(e.Step)
	for i := range serialLoss {
		if serialLoss[i] != concLoss[i] {
			t.Fatalf("epoch %d loss diverged: %v vs %v", i, serialLoss[i], concLoss[i])
		}
	}
	if !SnapshotsEqual(serialW, concW) {
		t.Fatal("weights diverged across executors")
	}
}

// TestExecutorRejectsIllegalSchedule: validation errors surface before any
// work is dispatched.
func TestExecutorRejectsIllegalSchedule(t *testing.T) {
	e := NewExecutor(ExecConcurrent, 2)
	defer e.Close()
	net := mlp(1, 8, 3)
	x, labels := data.Vectors(2, 4, 8, 3)
	logits := net.Forward(x)
	_, lossGrad := nn.SoftmaxCrossEntropy(logits, labels)
	bad := graph.BackwardSchedule{{Kind: graph.WeightGrad, Layer: 1}}
	if _, err := e.Backward(net, lossGrad, bad); err == nil {
		t.Fatal("illegal schedule accepted")
	}
}

// TestExecutorTraceShowsOverlap: TraceObserver puts the δO chain on the
// caller's lane and the δW ops on worker lanes — or, for those the caller
// drains itself, on the caller's lane after the chain's last δO — and the
// result renders as a Chrome trace. (TestObserver pins the event multiset
// itself.)
func TestExecutorTraceShowsOverlap(t *testing.T) {
	e := NewExecutor(ExecConcurrent, 2)
	defer e.Close()
	net := mlp(51, 8, 3)
	L := len(net.Layers)
	x, labels := data.Vectors(53, 8, 8, 3)
	logits := net.Forward(x)
	_, lossGrad := nn.SoftmaxCrossEntropy(logits, labels)

	var tr trace.Trace
	e.Observe(TraceObserver(&tr))
	for pass := 0; pass < 20; pass++ {
		tr = trace.Trace{}
		if _, err := e.Backward(net, lossGrad, graph.ReverseFirstK(L, L)); err != nil {
			t.Fatal(err)
		}
		if len(tr.Spans) != 2*L-1 { // every δW, every δO but δO_1 (stepRows)
			t.Fatalf("%d spans, want %d", len(tr.Spans), 2*L-1)
		}
		var chainEnd time.Duration
		for _, s := range tr.Spans {
			if s.Kind == "dO" {
				if s.Lane != "lane00" {
					t.Fatalf("δO span %s on lane %q, want the caller's", s.Label, s.Lane)
				}
				chainEnd = max(chainEnd, s.End)
			}
		}
		for _, s := range tr.Spans {
			if s.Kind != "dO" && s.Lane == "lane00" && s.Start < chainEnd {
				t.Fatalf("%s span %s on the caller's lane at %v, before the chain's last δO ended (%v)", s.Kind, s.Label, s.Start, chainEnd)
			}
		}
	}
	if _, err := tr.ChromeJSON(); err != nil {
		t.Fatalf("chrome trace: %v", err)
	}
}

// TestParamsCached: the parameter list is built once; ZeroGrads and
// snapshots on the warm path do not re-collect it.
func TestParamsCached(t *testing.T) {
	net := mlp(61, 8, 3)
	first := net.Params()
	if len(first) == 0 {
		t.Fatal("no params")
	}
	if n := testing.AllocsPerRun(20, func() {
		if len(net.Params()) != len(first) {
			t.Fatal("param count changed")
		}
	}); n != 0 {
		t.Fatalf("cached Params allocates %v per call, want 0", n)
	}
}

// TestConcurrentExecutorWarmPathAllocs: once warm, the concurrent engine's
// dispatch machinery adds no allocations over the layers' own compute — it
// allocates strictly less than the serial walk (which builds its bookkeeping
// slices per call).
func TestConcurrentExecutorWarmPathAllocs(t *testing.T) {
	net := MLPNet(71, 16, 24, 3, 3)
	L := len(net.Layers)
	x, labels := data.Vectors(73, 8, 16, 3)
	logits := net.Forward(x)
	_, lossGrad := nn.SoftmaxCrossEntropy(logits, labels)
	sched := graph.ReverseFirstK(L, L/2)

	serial := testing.AllocsPerRun(10, func() {
		if _, err := net.Backward(lossGrad, sched); err != nil {
			t.Fatal(err)
		}
	})

	e := NewExecutor(ExecConcurrent, 2)
	defer e.Close()
	if _, err := e.Backward(net, lossGrad, sched); err != nil { // warm up state + analysis cache
		t.Fatal(err)
	}
	conc := testing.AllocsPerRun(10, func() {
		if _, err := e.Backward(net, lossGrad, sched); err != nil {
			t.Fatal(err)
		}
	})
	if conc > serial {
		t.Fatalf("concurrent warm path allocates %v per pass, serial %v — dispatch machinery must add nothing", conc, serial)
	}
}

// TestExecutorWarmPathZeroAllocs: the pooled engines (serial executor and
// concurrent executor) run a warm backward pass — and a warm whole Step,
// forward, loss and update included — with ZERO allocations on every net
// kind: the tensor workspace arena and the layers' retained buffers absorb
// all transients. A warm checkpointed step allocates only its bookkeeping
// slices and the stash buffers DropStash frees for the re-run to re-create.
// The nil-executor path (Network.Forward, Network.Backward) stays allocating
// by design; it is the differential reference.
func TestExecutorWarmPathZeroAllocs(t *testing.T) {
	cases := []struct {
		name  string
		net   *Network
		x     *tensor.Tensor
		lbl   []int
		sched graph.BackwardSchedule
	}{}
	{
		net := MLPNet(71, 16, 24, 3, 3)
		x, lbl := data.Vectors(73, 8, 16, 3)
		cases = append(cases, struct {
			name  string
			net   *Network
			x     *tensor.Tensor
			lbl   []int
			sched graph.BackwardSchedule
		}{"mlp", net, x, lbl, graph.ReverseFirstK(len(net.Layers), len(net.Layers)/2)})
	}
	{
		net := ConvNet(13, 14, 6, 4)
		x, lbl := data.Images(5, 8, 1, 14, 14, 4)
		cases = append(cases, struct {
			name  string
			net   *Network
			x     *tensor.Tensor
			lbl   []int
			sched graph.BackwardSchedule
		}{"conv", net, x, lbl, graph.Conventional(len(net.Layers))})
	}
	{
		net := TokenNet(17, 80, 24, 12, 48, 4)
		x, lbl := TokenBatch(7, 16, 12, 80, 4)
		cases = append(cases, struct {
			name  string
			net   *Network
			x     *tensor.Tensor
			lbl   []int
			sched graph.BackwardSchedule
		}{"nlp", net, x, lbl, graph.ReverseFirstK(len(net.Layers), 2)})
	}

	for _, c := range cases {
		for _, mode := range []ExecMode{ExecSerial, ExecConcurrent} {
			t.Run(fmt.Sprintf("%s/%s", c.name, mode), func(t *testing.T) {
				e := NewExecutor(mode, 2)
				defer e.Close()
				logits := c.net.Forward(c.x)
				_, lossGrad := nn.SoftmaxCrossEntropy(logits, c.lbl)
				// Two warm-up passes: the first sizes the retained layer
				// buffers and workspace bins, the second settles pool growth.
				for i := 0; i < 2; i++ {
					if _, err := e.Backward(c.net, lossGrad, c.sched); err != nil {
						t.Fatal(err)
					}
				}
				allocs := testing.AllocsPerRun(10, func() {
					if _, err := e.Backward(c.net, lossGrad, c.sched); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Fatalf("warm %s backward allocates %v per pass, want 0", mode, allocs)
				}

				opt := &nn.SGD{LR: 0.01}
				step := func() {
					if _, err := e.Step(c.net, c.x, c.lbl, c.sched, opt); err != nil {
						t.Fatal(err)
					}
				}
				step() // sizes the pooled forward buffers and the loss gradient
				step()
				if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
					t.Fatalf("warm %s step allocates %v times, want 0", mode, allocs)
				}

				if mode != ExecSerial {
					return
				}
				recompute := func() {
					if _, _, err := e.StepRecompute(c.net, c.x, c.lbl, c.sched, 2, opt); err != nil {
						t.Fatal(err)
					}
				}
				recompute()
				recompute()
				// A checkpointed step too: its bookkeeping lives on the executor, and
				// every stash its forward pass drops (MLP: 3 masks; conv: 2
				// lowerings, 2 masks, 1 argmax map; NLP: ids, xhat, invStd, 1 mask)
				// keeps its capacity for the re-run.
				if allocs := testing.AllocsPerRun(10, recompute); allocs != 0 {
					t.Fatalf("warm checkpointed step allocates %v times, want 0", allocs)
				}
			})
		}
	}
}

// TestPooledExecutorBitIdenticalToReference: the pooled serial engine and the
// naive Network.Backward walk produce bit-identical parameter gradients on
// the same pass — the end-to-end statement of the kernel determinism
// contract (fused GEMMs, workspace reuse and retained buffers change no
// bits).
func TestPooledExecutorBitIdenticalToReference(t *testing.T) {
	build := func() (*Network, *tensor.Tensor, []int) {
		net := ConvNet(13, 14, 6, 4)
		x, lbl := data.Images(5, 8, 1, 14, 14, 4)
		return net, x, lbl
	}

	ref, xr, lr := build()
	logits := ref.Forward(xr)
	_, g := nn.SoftmaxCrossEntropy(logits, lr)
	sched := graph.ReverseFirstK(len(ref.Layers), 3)
	ref.ZeroGrads()
	if _, err := ref.Backward(g, sched); err != nil {
		t.Fatal(err)
	}
	want := GradSnapshot(ref)

	pooled, xp, lp := build()
	e := NewExecutor(ExecSerial, 0)
	logits = pooled.Forward(xp)
	_, g = nn.SoftmaxCrossEntropy(logits, lp)
	pooled.ZeroGrads()
	if _, err := e.Backward(pooled, g, sched); err != nil {
		t.Fatal(err)
	}
	got := GradSnapshot(pooled)
	if !SnapshotsEqual(want, got) {
		t.Fatal("pooled serial engine diverged bitwise from Network.Backward")
	}
}
