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
// models × schedules × checkpoint intervals — on one serial executor reused
// for every case, so its workspace and loss buffer arrive warm and mis-sized.
func TestStepRecomputeBitwiseIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	e := NewExecutor(ExecSerial, 0)
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
				name := fmt.Sprintf("%s every=%d", tc.name, every)
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
				if every > 1 && stats.RestashedLayers+stats.RecomputedLayers < L {
					t.Fatalf("%s: %d restashed + %d re-forwarded layers cannot rebuild the %d dropped stashes",
						name, stats.RestashedLayers, stats.RecomputedLayers, L)
				}
			}
		}
	}
}

// TestStepRecomputeLedgerPinned: the byte ledger counts logical lifetimes, so
// it cannot depend on which buffers a layer happens to retain. On the two
// benchmark nets and the token net, for every=1,2,3, a serial executor (cold
// and warm) reports exactly these numbers — conv every=2 is the benchmark's
// 1 941 504 B / 1 204 224 B, every stash restashed and no forward re-run. Full
// retention (every=1) counts each stash from its forward to its layer's last
// use as every checkpointed interval does; its checkpoint set is activations
// only, like theirs.
func TestStepRecomputeLedgerPinned(t *testing.T) {
	nets := ledgerNets()
	for _, want := range []struct {
		net                               string
		every                             int
		peak, checkpoint                  int64
		restashed, recomputed, peakLiveGr int
	}{
		{"mlp", 1, 250880, 212992, 0, 0, 2},
		{"conv", 1, 3056640, 2342912, 0, 0, 2},
		{"nlp", 1, 152064, 90624, 0, 0, 2},
		{"mlp", 2, 142336, 114688, 9, 0, 2},
		{"conv", 2, 1941504, 1204224, 7, 0, 2},
		{"nlp", 2, 152064, 44544, 3, 3, 2},
		{"mlp", 3, 143360, 65536, 4, 5, 2},
		{"conv", 3, 2203648, 802816, 4, 3, 2},
		{"nlp", 3, 152064, 4608, 3, 3, 2},
	} {
		c := nets[want.net]
		check := func(engine string, e *Executor, net *Network) {
			t.Helper()
			_, st, err := e.StepRecompute(net, c.x, c.labels, c.sched(len(net.Layers)), want.every, &nn.SGD{LR: 0.01})
			if err != nil {
				t.Fatalf("%s every=%d %s: %v", want.net, want.every, engine, err)
			}
			if st.PeakLiveBytes != want.peak || st.CheckpointBytes != want.checkpoint || st.RestashedLayers != want.restashed ||
				st.RecomputedLayers != want.recomputed || st.PeakLiveGrads != want.peakLiveGr {
				t.Errorf("%s every=%d %s: peak %d checkpoint %d restashed %d recomputed %d live grads %d, want %d %d %d %d %d",
					want.net, want.every, engine, st.PeakLiveBytes, st.CheckpointBytes, st.RestashedLayers, st.RecomputedLayers,
					st.PeakLiveGrads, want.peak, want.checkpoint, want.restashed, want.recomputed, want.peakLiveGr)
			}
		}
		e, net := NewExecutor(ExecSerial, 0), c.build()
		check("cold", e, net)
		check("warm", e, net)
	}
}

// ledgerNet is one of the ledger tests' reference nets: the benchmark's MLP
// and conv net under the conventional order, the token net under reverse
// first-2.
type ledgerNet struct {
	build  func() *Network
	x      *tensor.Tensor
	labels []int
	sched  func(L int) graph.BackwardSchedule
}

func ledgerNets() map[string]ledgerNet {
	xm, lm := data.Vectors(1, 32, 64, 4)
	xc, lc := data.Images(1, 32, 1, 16, 16, 10)
	xn, ln := TokenBatch(7, 16, 12, 80, 4)
	return map[string]ledgerNet{
		"mlp":  {func() *Network { return MLPNet(11, 64, 96, 4, 4) }, xm, lm, graph.Conventional},
		"conv": {func() *Network { return ConvNet(11, 16, 8, 10) }, xc, lc, graph.Conventional},
		"nlp": {func() *Network { return TokenNet(17, 80, 24, 12, 48, 4) }, xn, ln,
			func(L int) graph.BackwardSchedule { return graph.ReverseFirstK(L, 2) }},
	}
}

// TestStepRecomputeLedgerCeiling holds the ledger of the three reference nets
// at every = 2, 3, 4 against the numbers the step reported when every
// dropped stash was rebuilt by re-running the forward: the checkpoint set is
// the forward pass's choice and must not move, and no way of rebuilding a
// stash may raise the peak above that ceiling.
func TestStepRecomputeLedgerCeiling(t *testing.T) {
	nets := ledgerNets()
	for _, c := range []struct {
		net              string
		every            int
		peak, checkpoint int64
	}{
		{"mlp", 2, 191488, 114688},
		{"mlp", 3, 169984, 65536},
		{"mlp", 4, 194560, 65536},
		{"conv", 2, 5554176, 1204224},
		{"conv", 3, 5605376, 802816},
		{"conv", 4, 6457344, 655360},
		{"nlp", 2, 188928, 44544},
		{"nlp", 3, 152064, 4608},
		{"nlp", 4, 152064, 7680},
	} {
		n := nets[c.net]
		e, net := NewExecutor(ExecSerial, 0), n.build()
		_, st, err := e.StepRecompute(net, n.x, n.labels, n.sched(len(net.Layers)), c.every, &nn.SGD{LR: 0.01})
		if err != nil {
			t.Fatalf("%s every=%d: %v", c.net, c.every, err)
		}
		if st.CheckpointBytes != c.checkpoint || st.PeakLiveBytes > c.peak {
			t.Errorf("%s every=%d: peak %d checkpoint %d, want peak ≤ %d and checkpoint %d",
				c.net, c.every, st.PeakLiveBytes, st.CheckpointBytes, c.peak, c.checkpoint)
		}
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
	e := NewExecutor(ExecSerial, 0)
	for _, sched := range []graph.BackwardSchedule{
		graph.Conventional(L),
		graph.ReverseFirstK(L, 4),
	} {
		_, full, err := e.StepRecompute(build(), x, y, sched, 1, &nn.SGD{LR: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		_, ckpt, err := e.StepRecompute(build(), x, y, sched, 4, &nn.SGD{LR: 0.05})
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

// TestStepRecomputeSerialExecutor: a fresh serial executor lands on
// train.Step's bits with checkpointing on.
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

// TestStepRecomputeRejections: the concurrent engine is rejected.
func TestStepRecomputeRejections(t *testing.T) {
	x, y := data.Vectors(3, 12, 16, 3)
	net := MLPNet(11, 16, 24, 3, 3)
	sched := graph.Conventional(len(net.Layers))

	e := NewExecutor(ExecConcurrent, 2)
	defer e.Close()
	if _, _, err := e.StepRecompute(net, x, y, sched, 2, &nn.SGD{LR: 0.05}); err == nil {
		t.Fatal("concurrent executor accepted a recompute step")
	}
}
