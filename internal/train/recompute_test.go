package train

import (
	"fmt"
	"math/rand"
	"testing"

	"oooback/internal/data"
	"oooback/internal/graph"
	"oooback/internal/nn"
	"oooback/internal/tensor"
)

// TestStepRecomputeBitwiseIdentity: checkpointed steps must produce the same
// loss, gradients and post-step parameters as train.Step, bit for bit, across
// models × schedules × checkpoint intervals — on the naive nil executor and on
// one pooled serial executor reused for every case, so its workspace and loss
// buffer arrive warm and mis-sized.
func TestStepRecomputeBitwiseIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	engines := map[string]*Executor{"naive": nil, "pooled": NewExecutor(ExecSerial, 0)}
	for _, tc := range execCases() {
		ref := tc.build()
		L := len(ref.Layers)
		for _, sched := range caseSchedules(L, rng) {
			for _, every := range []int{1, 2, 3, L} {
				refNet := tc.build()
				refLoss, err := Step(refNet, tc.x, tc.labels, sched, &nn.SGD{LR: 0.05})
				if err != nil {
					t.Fatalf("%s: reference step: %v", tc.name, err)
				}
				for engine, e := range engines {
					name := fmt.Sprintf("%s %s every=%d", tc.name, engine, every)
					net := tc.build()
					loss, stats, err := e.StepRecompute(net, tc.x, tc.labels, sched, every, &nn.SGD{LR: 0.05})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if loss != refLoss {
						t.Fatalf("%s: loss %v, reference %v", name, loss, refLoss)
					}
					if !SnapshotsEqual(GradSnapshot(net), GradSnapshot(refNet)) {
						t.Fatalf("%s sched=%v: gradients differ from serial reference", name, sched[:3])
					}
					if !SnapshotsEqual(ParamSnapshot(net), ParamSnapshot(refNet)) {
						t.Fatalf("%s: post-step parameters differ", name)
					}
					if every > 1 && stats.RecomputedLayers == 0 && L > every {
						t.Fatalf("%s: no recompute happened on an %d-layer net", name, L)
					}
				}
			}
		}
	}
}

// TestStepRecomputeLedgerPinned: the byte ledger counts logical lifetimes, so
// it cannot depend on which buffers a layer happens to retain. On the two
// benchmark nets and the token net, for every=1,2,3, the pooled serial
// executor (cold and warm) and the naive nil executor report exactly the
// numbers StepRecompute reported before it ran on the pooled path — conv
// every=2 is the benchmark's 5 554 176 B / 1 204 224 B / 7.
func TestStepRecomputeLedgerPinned(t *testing.T) {
	xm, lm := data.Vectors(1, 32, 64, 4)
	xc, lc := data.Images(1, 32, 1, 16, 16, 10)
	xn, ln := TokenBatch(7, 16, 12, 80, 4)
	nets := map[string]struct {
		build  func() *Network
		x      *tensor.Tensor
		labels []int
		sched  func(L int) graph.BackwardSchedule
	}{
		"mlp":  {func() *Network { return MLPNet(11, 64, 96, 4, 4) }, xm, lm, graph.Conventional},
		"conv": {func() *Network { return ConvNet(11, 16, 8, 10) }, xc, lc, graph.Conventional},
		"nlp": {func() *Network { return TokenNet(17, 80, 24, 12, 48, 4) }, xn, ln,
			func(L int) graph.BackwardSchedule { return graph.ReverseFirstK(L, 2) }},
	}
	for _, want := range []struct {
		net                    string
		every                  int
		peak, checkpoint       int64
		recomputed, peakLiveGr int
	}{
		{"mlp", 1, 238592, 212992, 0, 2},
		{"conv", 1, 2785280, 2342912, 0, 2},
		{"nlp", 1, 112128, 90624, 0, 2},
		{"mlp", 2, 191488, 114688, 9, 2},
		{"conv", 2, 5554176, 1204224, 7, 2},
		{"nlp", 2, 188928, 44544, 6, 2},
		{"mlp", 3, 169984, 65536, 9, 2},
		{"conv", 3, 5605376, 802816, 7, 2},
		{"nlp", 3, 152064, 4608, 6, 2},
	} {
		c := nets[want.net]
		check := func(engine string, e *Executor, net *Network) {
			t.Helper()
			_, st, err := e.StepRecompute(net, c.x, c.labels, c.sched(len(net.Layers)), want.every, &nn.SGD{LR: 0.01})
			if err != nil {
				t.Fatalf("%s every=%d %s: %v", want.net, want.every, engine, err)
			}
			if st.PeakLiveBytes != want.peak || st.CheckpointBytes != want.checkpoint ||
				st.RecomputedLayers != want.recomputed || st.PeakLiveGrads != want.peakLiveGr {
				t.Fatalf("%s every=%d %s: peak %d checkpoint %d recomputed %d live grads %d, want %d %d %d %d",
					want.net, want.every, engine, st.PeakLiveBytes, st.CheckpointBytes, st.RecomputedLayers, st.PeakLiveGrads,
					want.peak, want.checkpoint, want.recomputed, want.peakLiveGr)
			}
		}
		check("naive", nil, c.build())
		pooled, net := NewExecutor(ExecSerial, 0), c.build()
		check("pooled cold", pooled, net)
		check("pooled warm", pooled, net)
	}
}

// TestStepRecomputeReducesPeak: on a deep MLP, checkpointing must cut the
// ledger's peak live bytes versus full retention, under the conventional
// order and a moderate reverse first-k deferral. (Full δW deferral is
// excluded on purpose: an activation lives until its δW runs, so deferring
// every δW keeps every re-materialized segment resident and negates
// checkpointing — the §6 tension graph.MemoryProfileRecompute models.)
func TestStepRecomputeReducesPeak(t *testing.T) {
	x, y := data.Vectors(9, 24, 32, 4)
	build := func() *Network { return MLPNet(19, 32, 64, 8, 4) }
	L := len(build().Layers)
	for _, sched := range []graph.BackwardSchedule{
		graph.Conventional(L),
		graph.ReverseFirstK(L, 4),
	} {
		_, full, err := (*Executor)(nil).StepRecompute(build(), x, y, sched, 1, &nn.SGD{LR: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		_, ckpt, err := (*Executor)(nil).StepRecompute(build(), x, y, sched, 4, &nn.SGD{LR: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if ckpt.PeakLiveBytes >= full.PeakLiveBytes {
			t.Errorf("every=4 peak %d not below full retention's %d", ckpt.PeakLiveBytes, full.PeakLiveBytes)
		}
		if ckpt.CheckpointBytes >= full.CheckpointBytes {
			t.Errorf("every=4 checkpoint set %d not below full retention's %d",
				ckpt.CheckpointBytes, full.CheckpointBytes)
		}
		if ckpt.RecomputedLayers == 0 || ckpt.RecomputeShare <= 0 {
			t.Errorf("every=4 reported no recompute (%+v)", ckpt)
		}
		if full.RecomputedLayers != 0 {
			t.Errorf("full retention recomputed %d layers", full.RecomputedLayers)
		}
	}
}

// TestStepRecomputeSerialExecutor: an explicit serial executor lands on the
// reference's bits like the nil executor does.
func TestStepRecomputeSerialExecutor(t *testing.T) {
	x, y := data.Vectors(3, 12, 16, 3)
	sched := graph.Conventional(7)
	refNet := MLPNet(11, 16, 24, 3, 3)
	refLoss, err := Step(refNet, x, y, sched, &nn.SGD{LR: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(ExecSerial, 0)
	net := MLPNet(11, 16, 24, 3, 3)
	loss, _, err := e.StepRecompute(net, x, y, sched, 3, &nn.SGD{LR: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if loss != refLoss || !SnapshotsEqual(GradSnapshot(net), GradSnapshot(refNet)) {
		t.Fatal("serial executor recompute step differs from reference")
	}
}

// TestStepRecomputeRejections: the concurrent engine and layers without the
// pooled contract (SelfAttention cannot drop its stash) are rejected.
func TestStepRecomputeRejections(t *testing.T) {
	x, y := data.Vectors(3, 12, 16, 3)
	net := MLPNet(11, 16, 24, 3, 3)
	sched := graph.Conventional(len(net.Layers))

	e := NewExecutor(ExecConcurrent, 2)
	defer e.Close()
	if _, _, err := e.StepRecompute(net, x, y, sched, 2, &nn.SGD{LR: 0.05}); err == nil {
		t.Fatal("concurrent executor accepted a recompute step")
	}

	rng := tensor.NewRNG(5)
	attnNet := &Network{Layers: []nn.Layer{
		nn.NewDense("fc1", 16, 8, rng),
		nn.NewSelfAttention("attn", 8, rng),
		nn.NewDense("fc2", 8, 3, rng),
	}}
	_, _, err := (*Executor)(nil).StepRecompute(attnNet, x, y, graph.Conventional(3), 2, &nn.SGD{LR: 0.05})
	if err == nil {
		t.Fatal("attention network accepted for recompute")
	}

	// every ≤ 1 is full retention: SelfAttention is fine there.
	if _, _, err := (*Executor)(nil).StepRecompute(attnNet, x, y, graph.Conventional(3), 1, &nn.SGD{LR: 0.05}); err != nil {
		t.Fatalf("full-retention step rejected: %v", err)
	}
}
