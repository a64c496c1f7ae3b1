package calib

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"oooback/internal/core"
	"oooback/internal/models"
)

func TestOpKindStringRoundTrip(t *testing.T) {
	for k := 0; k < numOpKinds; k++ {
		kind := OpKind(k)
		back, err := ParseOpKind(kind.String())
		if err != nil || back != kind {
			t.Fatalf("ParseOpKind(%q) = %v, %v", kind.String(), back, err)
		}
	}
	if _, err := ParseOpKind("bogus"); err == nil {
		t.Fatal("ParseOpKind accepted bogus")
	}
	if OpDWFill.CostFamily() != "dW" {
		t.Fatalf("dWFill family = %q", OpDWFill.CostFamily())
	}
}

func TestProfilerWarmupDiscardAndStats(t *testing.T) {
	p := NewProfiler("toy", "serial", 2, 2)
	samples := []time.Duration{10, 30, 20, 1000} // 1000 lands in warmup below? no: per-step sequence
	// Steps 0,1 are warmup; their observations define the op but record no
	// samples. Steps 2..5 record.
	warm := []time.Duration{100, 300, 200, 400}
	for step := 0; step < 6; step++ {
		var d time.Duration
		if step < 2 {
			d = samples[step] // warmup values must not appear in the stats
		} else {
			d = warm[step-2]
		}
		p.Observe(OpFwd, 1, "dense", 50, d)
		p.EndStep(2 * d)
	}
	np := p.Snapshot()
	if np.Net != "toy" || np.Engine != "serial" || np.Layers != 2 || np.WarmSteps != 4 {
		t.Fatalf("snapshot header %+v", np)
	}
	if len(np.Ops) != 1 {
		t.Fatalf("ops = %+v", np.Ops)
	}
	op := np.Ops[0]
	if op.Kind != "fwd" || op.Layer != 1 || op.LayerType != "dense" || op.Work != 50 || op.Samples != 4 {
		t.Fatalf("op = %+v", op)
	}
	// Sorted warm samples 100,200,300,400 → lower-middle median 200; absolute
	// deviations 100,0,100,200 → sorted 0,100,100,200 → MAD 100.
	if op.MedianNs != 200 || op.MADNs != 100 {
		t.Fatalf("median/MAD = %d/%d, want 200/100", op.MedianNs, op.MADNs)
	}
	// Iter walls are 2×: median 400, MAD 200.
	if np.IterMedianNs != 400 || np.IterMADNs != 200 {
		t.Fatalf("iter median/MAD = %d/%d", np.IterMedianNs, np.IterMADNs)
	}
}

func TestProfilerMetadataFrozenAtFirstObserve(t *testing.T) {
	p := NewProfiler("toy", "serial", 1, 1)
	p.Observe(OpDW, 1, "conv2d", 123, 5)
	p.EndStep(5)
	p.Observe(OpDW, 1, "IGNORED", 999, 7)
	p.EndStep(7)
	op := p.Snapshot().Ops[0]
	if op.LayerType != "conv2d" || op.Work != 123 {
		t.Fatalf("metadata not frozen: %+v", op)
	}
	if op.Samples != 1 || op.MedianNs != 7 {
		t.Fatalf("warm samples wrong: %+v", op)
	}
}

// TestProfilerObserveAllocs pins the acceptance criterion: the warm
// recording path performs zero allocations, at every GOMAXPROCS the CI race
// matrix runs.
func TestProfilerObserveAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			p := NewProfiler("alloc", "serial", 4, 1)
			for l := 1; l <= 4; l++ {
				p.Observe(OpFwd, l, "dense", 100, time.Microsecond)
				p.Observe(OpDW, l, "dense", 100, time.Microsecond)
			}
			p.EndStep(time.Millisecond)
			avg := testing.AllocsPerRun(200, func() {
				p.Observe(OpFwd, 2, "dense", 100, 3*time.Microsecond)
				p.Observe(OpDW, 3, "dense", 100, 2*time.Microsecond)
				p.EndStep(time.Millisecond)
			})
			if avg != 0 {
				t.Fatalf("warm Observe path allocates %.1f allocs/op, want 0", avg)
			}
		})
	}
}

func TestProfilerSampleCap(t *testing.T) {
	p := NewProfiler("cap", "serial", 1, 1)
	for i := 0; i < maxSamplesPerOp+100; i++ {
		p.Observe(OpFwd, 1, "", 1, time.Duration(i))
		p.EndStep(time.Duration(i))
	}
	op := p.Snapshot().Ops[0]
	if op.Samples != maxSamplesPerOp {
		t.Fatalf("samples = %d, want cap %d", op.Samples, maxSamplesPerOp)
	}
}

// syntheticProfile builds a profile whose op medians follow exact linear
// laws, so Fit should recover the coefficients and Validate should report
// (near) zero error.
func syntheticProfile() *Profile {
	law := func(fixed, slope, work float64) int64 { return int64(fixed + slope*work) }
	var nets []NetProfile
	for ni, scale := range []float64{1, 2} {
		L := 3
		n := NetProfile{
			Net:       fmt.Sprintf("net%d", ni),
			Engine:    "serial",
			Layers:    L,
			WarmSteps: 8,
		}
		var sum int64
		for l := 1; l <= L; l++ {
			work := scale * float64(l) * 1000
			fwd := law(500, 3, work)
			do := law(400, 2, work)
			dw := law(300, 1.5, work)
			sum += fwd + do + dw
			n.Ops = append(n.Ops,
				OpStat{Kind: "fwd", Layer: l, LayerType: "dense", Work: work, Samples: 8, MedianNs: fwd},
				OpStat{Kind: "dO", Layer: l, LayerType: "dense", Work: work, Samples: 8, MedianNs: do},
				OpStat{Kind: "dW", Layer: l, LayerType: "dense", Work: work, Samples: 8, MedianNs: dw},
			)
		}
		loss := law(200, 0.1, 4000)
		upd := law(250, 0.2, 6000)
		zero := law(100, 0.05, 6000)
		sum += loss + upd + zero
		n.Ops = append(n.Ops,
			OpStat{Kind: "loss", Layer: 0, Work: 4000, Samples: 8, MedianNs: loss},
			OpStat{Kind: "update", Layer: 0, Work: 6000, Samples: 8, MedianNs: upd},
			OpStat{Kind: "zeroGrad", Layer: 0, Work: 6000, Samples: 8, MedianNs: zero},
		)
		sortOps(n.Ops)
		n.IterMedianNs = sum
		n.IterMADNs = 10
		nets = append(nets, n)
	}
	return &Profile{Version: ProfileVersion, Nets: nets}
}

func TestFitRecoversLinearLaws(t *testing.T) {
	p := syntheticProfile()
	tab, err := Fit(p)
	if err != nil {
		t.Fatal(err)
	}
	check := func(key string, fixed, slope float64) {
		t.Helper()
		e, ok := tab.Entries[key]
		if !ok {
			t.Fatalf("fitted table misses %q", key)
		}
		if math.Abs(e.FixedNs-fixed) > 0.05*fixed+2 || math.Abs(e.NsPerWork-slope) > 0.05*slope+1e-3 {
			t.Fatalf("entry %q = %+v, want ≈ (%v, %v)", key, e, fixed, slope)
		}
	}
	check("fwd:dense", 500, 3)
	check("dO:dense", 400, 2)
	check("dW:dense", 300, 1.5)
	check("fwd", 500, 3) // aggregate family from the same points
	if _, ok := tab.Entries["loss"]; !ok {
		t.Fatal("no loss entry")
	}
}

func TestFitDegenerateSingleWork(t *testing.T) {
	p := &Profile{Version: ProfileVersion, Nets: []NetProfile{{
		Net: "one", Engine: "serial", Layers: 1, WarmSteps: 4,
		IterMedianNs: 1000,
		Ops: []OpStat{
			{Kind: "fwd", Layer: 1, LayerType: "relu", Work: 100, Samples: 4, MedianNs: 400},
			{Kind: "dO", Layer: 1, LayerType: "relu", Work: 100, Samples: 4, MedianNs: 300},
			{Kind: "dW", Layer: 1, LayerType: "relu", Work: 0, Samples: 4, MedianNs: 200},
		},
	}}}
	tab, err := Fit(p)
	if err != nil {
		t.Fatal(err)
	}
	// Single nonzero work → through-origin slope.
	if e := tab.Entries["fwd:relu"]; e.FixedNs != 0 || e.NsPerWork != 4 {
		t.Fatalf("fwd:relu = %+v", e)
	}
	// All-zero work → constant.
	if e := tab.Entries["dW:relu"]; e.FixedNs != 200 || e.NsPerWork != 0 {
		t.Fatalf("dW:relu = %+v", e)
	}
}

func TestValidateSyntheticExact(t *testing.T) {
	p := syntheticProfile()
	tab, err := Fit(p)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Validate(p, tab)
	if err != nil {
		t.Fatal(err)
	}
	if len(acc.PerNet) != 2 {
		t.Fatalf("per-net = %+v", acc.PerNet)
	}
	if acc.MAPE > 0.01 {
		t.Fatalf("synthetic MAPE = %v, want ≈ 0 (per-net %+v)", acc.MAPE, acc.PerNet)
	}
	// A table missing required families surfaces the typed error.
	bad := &models.CostTable{Name: "partial", Entries: map[string]models.CostEntry{"fwd": {FixedNs: 1}}}
	if _, err := Validate(p, bad); err == nil {
		t.Fatal("Validate with partial table succeeded")
	} else {
		var uk *models.UnknownOpKindError
		if !errors.As(err, &uk) {
			t.Fatalf("error %T, want *models.UnknownOpKindError", err)
		}
	}
	// Non-serial engines are skipped; a profile with none fails loudly.
	pipeOnly := syntheticProfile()
	for i := range pipeOnly.Nets {
		pipeOnly.Nets[i].Engine = "pipeline"
	}
	if _, err := Validate(pipeOnly, tab); err == nil {
		t.Fatal("Validate with no serial nets succeeded")
	}
}

func TestWhatIfApplyTable(t *testing.T) {
	tab := &models.CostTable{Name: "t", Entries: map[string]models.CostEntry{
		"fwd":      {FixedNs: 100, NsPerWork: 2},
		"dW":       {FixedNs: 50, NsPerWork: 1},
		"dW:dense": {FixedNs: 30, NsPerWork: 4},
		"reduce":   {FixedNs: 10, NsPerWork: 8},
	}}
	w := WhatIf{ScaleOpKind: map[string]float64{"dW": 0.5}, ScaleBandwidth: 2}
	out, err := w.Apply(tab)
	if err != nil {
		t.Fatal(err)
	}
	if e := out.Entries["dW"]; e.FixedNs != 25 || e.NsPerWork != 0.5 {
		t.Fatalf("dW = %+v", e)
	}
	if e := out.Entries["dW:dense"]; e.FixedNs != 15 || e.NsPerWork != 2 {
		t.Fatalf("dW:dense = %+v", e)
	}
	if e := out.Entries["reduce"]; e.FixedNs != 5 || e.NsPerWork != 4 {
		t.Fatalf("reduce under 2× bandwidth = %+v", e)
	}
	if e := out.Entries["fwd"]; e != tab.Entries["fwd"] {
		t.Fatalf("fwd changed: %+v", e)
	}
	// dWFill folds into dW, so it is not a valid what-if key.
	if err := (WhatIf{ScaleOpKind: map[string]float64{"dWFill": 0.5}}).Validate(); err == nil {
		t.Fatal("dWFill accepted as a scale key")
	}
	if err := (WhatIf{ScaleOpKind: map[string]float64{"dW": 0}}).Validate(); err == nil {
		t.Fatal("zero factor accepted")
	}
	if err := (WhatIf{ScaleBandwidth: -1}).Validate(); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
}

func TestWhatIfApplyModel(t *testing.T) {
	m := models.FFNN(models.V100Profile(), 4, 1024, 32)
	w := WhatIf{ScaleOpKind: map[string]float64{"dW": 0.5, "fwd": 2}}
	out, err := w.ApplyModel(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Layers {
		if out.Layers[i].DW != scaleDur(m.Layers[i].DW, 0.5) {
			t.Fatalf("layer %d DW = %v from %v", i, out.Layers[i].DW, m.Layers[i].DW)
		}
		if out.Layers[i].Fwd != scaleDur(m.Layers[i].Fwd, 2) {
			t.Fatalf("layer %d Fwd = %v from %v", i, out.Layers[i].Fwd, m.Layers[i].Fwd)
		}
		if out.Layers[i].DO != m.Layers[i].DO {
			t.Fatalf("layer %d DO changed", i)
		}
	}
	if m.Layers[0].DW == out.Layers[0].DW {
		t.Fatal("original model mutated or scale ineffective")
	}
	// Families without a model analogue are rejected at the model level.
	if _, err := (WhatIf{ScaleOpKind: map[string]float64{"loss": 0.5}}).ApplyModel(m); err == nil {
		t.Fatal("loss scale accepted for a layer-cost model")
	}
}

// TestWhatIfApplyCosts pins the perturbation semantics on a cost vector:
// op-kind factors scale their columns, bandwidth divides sync service, lag
// untouched.
func TestWhatIfApplyCosts(t *testing.T) {
	c := core.IterCosts{
		F:       []time.Duration{100, 200},
		DO:      []time.Duration{10, 20},
		DW:      []time.Duration{1000, 2000},
		SyncW:   []time.Duration{500, 0},
		SyncLag: []time.Duration{7, 7},
	}
	got := WhatIf{ScaleOpKind: map[string]float64{"dW": 0.5}, ScaleBandwidth: 2}.ApplyCosts(c)
	want := core.IterCosts{
		F:       []time.Duration{100, 200},
		DO:      []time.Duration{10, 20},
		DW:      []time.Duration{500, 1000},
		SyncW:   []time.Duration{250, 0},
		SyncLag: []time.Duration{7, 7},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("perturbed = %+v, want %+v", got, want)
	}
	// Positive durations never scale to zero (simulator contract).
	tiny := WhatIf{ScaleOpKind: map[string]float64{"dW": 0.001}}.ApplyCosts(
		core.IterCosts{F: []time.Duration{1}, DO: []time.Duration{1}, DW: []time.Duration{1}, SyncW: []time.Duration{1}})
	if tiny.DW[0] != 1 {
		t.Fatalf("tiny δW scaled to %v, want floor 1", tiny.DW[0])
	}
	if &got.SyncLag[0] != &c.SyncLag[0] {
		t.Fatalf("SyncLag should be shared (never mutated)")
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	p := syntheticProfile()
	buf, err := p.WriteJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadProfileJSON(buf)
	if err != nil {
		t.Fatal(err)
	}
	buf2, err := back.WriteJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(buf2) {
		t.Fatal("profile JSON not canonical across a round trip")
	}
}
