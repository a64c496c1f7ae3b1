package datapar

import (
	"testing"
	"testing/quick"
	"time"

	"oooback/internal/models"
	"oooback/internal/trace"
)

func resnet50(batch int) *models.Model {
	return models.ResNet(models.V100Profile(), 50, batch, models.ImageNet)
}

func TestSingleWorkerNoSync(t *testing.T) {
	m := resnet50(64)
	r := Run(m, PubA(), 1, BytePS)
	if r.GPUIdle != 0 {
		t.Fatalf("single worker idle = %v, want 0", r.GPUIdle)
	}
	if r.IterTime != m.IterTime() {
		t.Fatalf("single worker iter = %v, want pure compute %v", r.IterTime, m.IterTime())
	}
}

func TestMethodOrderingAt16V100(t *testing.T) {
	m := resnet50(128) // the paper's per-GPU batch for ResNet-50 on V100
	cl := PubA()
	wf := Run(m, cl, 16, WFBP)
	hv := Run(m, cl, 16, Horovod)
	bp := Run(m, cl, 16, BytePS)
	ooo := Run(m, cl, 16, OOOBytePS)
	// Fig 10 ordering: OOO-BytePS > BytePS > WFBP > Horovod.
	if !(ooo.Throughput > bp.Throughput) {
		t.Fatalf("OOO (%v) not above BytePS (%v)", ooo.Throughput, bp.Throughput)
	}
	if !(bp.Throughput > hv.Throughput) {
		t.Fatalf("BytePS (%v) not above Horovod (%v)", bp.Throughput, hv.Throughput)
	}
	if !(wf.Throughput > hv.Throughput) {
		t.Fatalf("WFBP (%v) not above Horovod (%v)", wf.Throughput, hv.Throughput)
	}
	if ooo.K <= 0 {
		t.Fatalf("OOO picked k=%d, want > 0 under heavy sync", ooo.K)
	}
}

func TestSpeedupInPaperRange(t *testing.T) {
	// §8.3: OOO-BytePS is 1.10–1.27× BytePS on 16–48 GPUs (ResNet-50 at the
	// paper's 128 per-GPU batch).
	m := resnet50(128)
	cl := PubA()
	for _, w := range []int{16, 32, 48} {
		bp := Run(m, cl, w, BytePS)
		ooo := Run(m, cl, w, OOOBytePS)
		s := ooo.Throughput / bp.Throughput
		if s < 1.05 || s > 1.5 {
			t.Errorf("workers=%d: OOO/BytePS = %.3f outside plausible range", w, s)
		}
	}
}

func TestNVLinkOnlyGainIsSmall(t *testing.T) {
	// §8.3: on 2–4 GPUs (all NVLink) the gain is 1–5%.
	m := resnet50(128)
	cl := PubA()
	for _, w := range []int{2, 4} {
		bp := Run(m, cl, w, BytePS)
		ooo := Run(m, cl, w, OOOBytePS)
		s := ooo.Throughput / bp.Throughput
		if s < 0.999 || s > 1.10 {
			t.Errorf("workers=%d: NVLink-only speedup %.3f, want ≈ 1.00–1.05", w, s)
		}
	}
}

func TestScalingEfficiencyDropsWithWorkers(t *testing.T) {
	m := resnet50(64)
	cl := PubA()
	t8 := Run(m, cl, 8, BytePS)
	t32 := Run(m, cl, 32, BytePS)
	per8 := t8.Throughput / 8
	per32 := t32.Throughput / 32
	if per32 >= per8 {
		t.Fatalf("per-GPU throughput should drop: 8→%v 32→%v", per8, per32)
	}
	if t32.Throughput <= t8.Throughput {
		t.Fatalf("aggregate throughput should still grow: %v vs %v", t8.Throughput, t32.Throughput)
	}
}

func TestHorovodGapGrowsWithCluster(t *testing.T) {
	// §8.3: Horovod loses 89% on 8×TitanXP and 3.5× on 20×P100 — the gap
	// widens with scale.
	m := models.ResNet(models.TitanXPProfile(), 101, 64, models.ImageNet)
	a8 := Run(m, PrivA(), 8, OOOBytePS).Throughput / Run(m, PrivA(), 8, Horovod).Throughput
	mp := models.ResNet(models.P100Profile(), 101, 64, models.ImageNet)
	b20 := Run(mp, PrivB(), 20, OOOBytePS).Throughput / Run(mp, PrivB(), 20, Horovod).Throughput
	if a8 < 1.15 {
		t.Errorf("8×TitanXP OOO/Horovod = %.2f, want ≥ 1.15", a8)
	}
	if b20 <= a8 {
		t.Errorf("gap should widen with scale: 8 GPUs %.2f vs 20 GPUs %.2f", a8, b20)
	}
}

func TestSync1EarlierUnderOOO(t *testing.T) {
	// The §8.3 mechanism: reverse first-k makes the first layer's
	// synchronization finish earlier.
	m := resnet50(64)
	cl := PubA()
	bp := Run(m, cl, 16, BytePS)
	ooo := Run(m, cl, 16, OOOBytePS)
	if ooo.Sync1 >= bp.Sync1 {
		t.Fatalf("sync1: OOO %v not earlier than BytePS %v", ooo.Sync1, bp.Sync1)
	}
}

func TestTraceRecordsLanes(t *testing.T) {
	m := resnet50(64)
	tr := &trace.Trace{}
	RunTraced(m, PubA(), 16, OOOBytePS, tr)
	if tr.BusyTime("GPU") == 0 || tr.BusyTime("NET") == 0 {
		t.Fatalf("trace lanes missing: GPU=%v NET=%v", tr.BusyTime("GPU"), tr.BusyTime("NET"))
	}
}

func TestWorkerBoundsChecked(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for oversubscribed cluster")
		}
	}()
	Run(resnet50(64), PrivA(), 9, BytePS)
}

// TestCostsExtrapolatePastMaxGPUs pins what Costs does above a cluster's
// MaxGPUs, where Run panics: Priv-A (8 GPUs, one per node) costed at 16 GPUs
// gets the same SyncTime and AggregationLag formulas at 16 workers, and every
// tensor syncs no faster than at 8.
func TestCostsExtrapolatePastMaxGPUs(t *testing.T) {
	m, cl := resnet50(64), PrivA()
	for _, method := range []Method{WFBP, Horovod, BytePS, OOOBytePS} {
		c8, c16 := Costs(m, cl, 8, method), Costs(m, cl, 16, method)
		lag := AggregationLag(cl, 16, m.TotalBackward())
		if lag <= AggregationLag(cl, 8, m.TotalBackward()) {
			t.Fatalf("%v: 16-node lag %v not above the 8-node one", method, lag)
		}
		for i, l := range m.Layers {
			if want := SyncTime(cl, 16, method, l.ParamBytes); c16.SyncW[i] != want {
				t.Fatalf("%v: layer %d syncs in %v at 16 GPUs, SyncTime says %v", method, i+1, c16.SyncW[i], want)
			}
			if c16.SyncW[i] < c8.SyncW[i] {
				t.Fatalf("%v: layer %d syncs in %v at 16 GPUs, faster than %v at 8", method, i+1, c16.SyncW[i], c8.SyncW[i])
			}
			var want time.Duration // a tensor with nothing to sync waits for nobody
			if c16.SyncW[i] > 0 {
				want = lag
			}
			if c16.SyncLag[i] != want {
				t.Fatalf("%v: layer %d lag %v, want %v", method, i+1, c16.SyncLag[i], want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Run accepted Priv-A at 16 GPUs")
		}
	}()
	Run(m, cl, 16, BytePS)
}

// Property: throughput never decreases when the interconnect gets faster
// (PrivB's 20 GbE vs PrivA's 10 GbE at equal GPU count and profile).
func TestFasterLinkNeverHurtsProperty(t *testing.T) {
	f := func(wRaw uint8) bool {
		w := int(wRaw%7) + 2 // 2..8
		m := models.ResNet(models.P100Profile(), 50, 64, models.ImageNet)
		slow := PrivA()
		slow.Profile = models.P100Profile()
		fast := PrivB()
		fast.MaxGPUs = 8
		a := Run(m, slow, w, BytePS).Throughput
		b := Run(m, fast, w, BytePS).Throughput
		return b >= a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: OOO-BytePS never loses to BytePS (k=0 is in its search space).
func TestOOONeverWorseProperty(t *testing.T) {
	f := func(wRaw uint8) bool {
		w := int(wRaw%12)*4 + 4 // 4..48
		m := resnet50(64)
		bp := Run(m, PubA(), w, BytePS)
		ooo := Run(m, PubA(), w, OOOBytePS)
		return ooo.Throughput >= bp.Throughput*0.999
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestP3BetweenWFBPAndBytePS(t *testing.T) {
	// P3 prioritizes whole tensors but cannot preempt mid-transfer: it should
	// land between FIFO WFBP and chunk-preemptive BytePS.
	m := resnet50(128)
	cl := PubA()
	wf := Run(m, cl, 16, WFBP)
	p3 := Run(m, cl, 16, P3)
	bp := Run(m, cl, 16, BytePS)
	if p3.Throughput < wf.Throughput*0.999 {
		t.Fatalf("P3 (%v) below WFBP (%v)", p3.Throughput, wf.Throughput)
	}
	if bp.Throughput < p3.Throughput*0.999 {
		t.Fatalf("BytePS (%v) below P3 (%v)", bp.Throughput, p3.Throughput)
	}
}

func TestOOOImprovesHorovodToo(t *testing.T) {
	// §8.3: "Our algorithm also improved the performance of Horovod."
	m := resnet50(128)
	cl := PubA()
	hv := Run(m, cl, 16, Horovod)
	ooo := Run(m, cl, 16, OOOHorovod)
	if ooo.Throughput < hv.Throughput {
		t.Fatalf("OOO-Horovod (%v) below Horovod (%v)", ooo.Throughput, hv.Throughput)
	}
	if ooo.Throughput < hv.Throughput*1.01 {
		t.Logf("note: OOO-Horovod gain marginal: %.3f", ooo.Throughput/hv.Throughput)
	}
}
