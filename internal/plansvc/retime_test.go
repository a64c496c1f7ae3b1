package plansvc

import (
	"bytes"
	"context"
	"os"
	"testing"
	"time"

	"oooback/internal/calib"
	"oooback/internal/models"
)

// loadFittedTable fits the committed real-machine calibration profile into a
// cost table (the same artifact `oooplan serve -calib` loads).
func loadFittedTable(t *testing.T) *models.CostTable {
	t.Helper()
	raw, err := os.ReadFile("../calib/testdata/profile_real.json")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := calib.ReadProfileJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	table, err := calib.Fit(prof)
	if err != nil {
		t.Fatal(err)
	}
	return table
}

// TestRetimedZooPlansChange pins satellite behaviour: a service started with
// a fitted cost table plans zoo models against measured costs — the
// fingerprint must change (no cache collision with default-cost plans) and
// the planned iteration time must reflect the re-timed layers.
func TestRetimedZooPlansChange(t *testing.T) {
	table := loadFittedTable(t)
	if err := CheckCostTable(table); err != nil {
		t.Fatal(err)
	}

	plain := New(Options{Workers: 1, Logger: quietLogger()})
	t.Cleanup(plain.Close)
	retimed := New(Options{Workers: 1, Logger: quietLogger(), CostTable: table})
	t.Cleanup(retimed.Close)

	ctx := context.Background()
	req := func() *PlanRequest {
		return &PlanRequest{Model: "resnet50", Cluster: ClusterSpec{Preset: "pub-a", GPUs: 8}}
	}
	base, err := plain.Plan(ctx, req())
	if err != nil {
		t.Fatal(err)
	}
	fitted, err := retimed.Plan(ctx, req())
	if err != nil {
		t.Fatal(err)
	}

	if base.Fingerprint == fitted.Fingerprint {
		t.Fatalf("re-timed plan shares fingerprint %s with the default-cost plan", base.Fingerprint)
	}
	if base.IterTimeNs == fitted.IterTimeNs {
		t.Fatalf("re-timed plan has identical iteration time %d ns — table was not applied", base.IterTimeNs)
	}
	if fitted.IterTimeNs <= 0 || fitted.Speedup < 1 {
		t.Fatalf("degenerate re-timed plan: %+v", fitted)
	}

	// The normalized spec carries the table's name into the fingerprint.
	sp, err := normalize(req())
	if err != nil {
		t.Fatal(err)
	}
	if fp := retimed.key(sp); fp != fitted.Fingerprint {
		t.Fatalf("key %s, served fingerprint %s", fp, fitted.Fingerprint)
	}
	if sp.CostModel != table.Name || sp.retime != table {
		t.Fatalf("key: cost_model %q (want %q), retime set %v", sp.CostModel, table.Name, sp.retime != nil)
	}
}

// TestRetimedInlineSpecUntouched: inline model specs carry the caller's own
// measured times and must never be re-timed — same fingerprint and plan with
// or without a table.
func TestRetimedInlineSpecUntouched(t *testing.T) {
	table := loadFittedTable(t)
	plain := New(Options{Workers: 1, Logger: quietLogger()})
	t.Cleanup(plain.Close)
	retimed := New(Options{Workers: 1, Logger: quietLogger(), CostTable: table})
	t.Cleanup(retimed.Close)

	inline := &models.Model{Name: "inline", Batch: 32, Layers: []models.Layer{
		{Name: "a", Fwd: time.Millisecond, DO: time.Millisecond, DW: time.Millisecond,
			FwdKernels: 1, DOKernels: 1, DWKernels: 1, FwdBlocks: 64, DOBlocks: 64, DWBlocks: 64,
			ParamBytes: 4096, ActBytes: 4096, OutBytes: 4096},
		{Name: "b", Fwd: 2 * time.Millisecond, DO: 2 * time.Millisecond, DW: 2 * time.Millisecond,
			FwdKernels: 1, DOKernels: 1, DWKernels: 1, FwdBlocks: 64, DOBlocks: 64, DWBlocks: 64,
			ParamBytes: 4096, ActBytes: 4096, OutBytes: 4096},
	}}
	var buf bytes.Buffer
	if err := inline.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := func() *PlanRequest {
		return &PlanRequest{ModelSpec: buf.Bytes(), Cluster: ClusterSpec{Preset: "pub-a", GPUs: 8}}
	}
	base, err := plain.Plan(ctx, req())
	if err != nil {
		t.Fatal(err)
	}
	fitted, err := retimed.Plan(ctx, req())
	if err != nil {
		t.Fatal(err)
	}
	if base.Fingerprint != fitted.Fingerprint {
		t.Fatalf("inline-spec fingerprints diverged: %s vs %s", base.Fingerprint, fitted.Fingerprint)
	}
	if base.IterTimeNs != fitted.IterTimeNs {
		t.Fatalf("inline-spec plan changed under the cost table: %d vs %d ns", base.IterTimeNs, fitted.IterTimeNs)
	}
}

// TestNewPanicsOnUnusableCostTable: a table missing the re-timing families
// must fail at construction.
func TestNewPanicsOnUnusableCostTable(t *testing.T) {
	bad := &models.CostTable{Name: "bad", Entries: map[string]models.CostEntry{
		"fwd": {FixedNs: 1, NsPerWork: 1, Samples: 2},
	}}
	if err := CheckCostTable(bad); err == nil {
		t.Fatal("CheckCostTable accepted a table without dO/dW")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted an unusable cost table")
		}
	}()
	New(Options{Workers: 1, Logger: quietLogger(), CostTable: bad})
}
