package models

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func testTable() *CostTable {
	return &CostTable{
		Name: "test",
		Entries: map[string]CostEntry{
			"fwd":      {FixedNs: 100, NsPerWork: 2},
			"dW":       {FixedNs: 50, NsPerWork: 1},
			"dW:dense": {FixedNs: 10, NsPerWork: 4},
		},
	}
}

func TestCostTableLookup(t *testing.T) {
	tab := testTable()
	cases := []struct {
		kind string
		work float64
		want time.Duration
	}{
		{"fwd", 10, 120},         // exact family hit
		{"fwd:conv2d", 10, 120},  // specialized key falls back to family
		{"dW:dense", 10, 50},     // exact specialized hit beats the family
		{"dW:layernorm", 10, 60}, // unseen layer type falls back to family
	}
	for _, c := range cases {
		got, err := tab.Cost(c.kind, c.work)
		if err != nil {
			t.Fatalf("Cost(%q): unexpected error %v", c.kind, err)
		}
		if got != c.want {
			t.Errorf("Cost(%q, %v) = %v, want %v", c.kind, c.work, got, c.want)
		}
	}
}

// TestCostTableUnknownKind is the regression test for the zero-cost
// fallthrough: an unknown op kind must return a typed error, never a silent
// zero duration that would vanish a layer from the simulated timeline.
func TestCostTableUnknownKind(t *testing.T) {
	tab := testTable()
	for _, kind := range []string{"reduce", "reduce:bucket", "bogus", ""} {
		d, err := tab.Cost(kind, 1000)
		if err == nil {
			t.Fatalf("Cost(%q) = %v with nil error, want *UnknownOpKindError", kind, d)
		}
		var uk *UnknownOpKindError
		if !errors.As(err, &uk) {
			t.Fatalf("Cost(%q) error %T, want *UnknownOpKindError", kind, err)
		}
		if uk.Kind != kind || uk.Table != "test" {
			t.Errorf("Cost(%q) error fields = %q/%q", kind, uk.Kind, uk.Table)
		}
		if d != 0 {
			t.Errorf("Cost(%q) returned nonzero duration %v alongside the error", kind, d)
		}
		if !strings.Contains(err.Error(), "test") {
			t.Errorf("error %q does not name the table", err)
		}
	}
}

func TestCostEntryClampsNegative(t *testing.T) {
	e := CostEntry{FixedNs: -100, NsPerWork: 1}
	if d := e.Duration(10); d != 0 {
		t.Errorf("negative law evaluated to %v, want clamp to 0", d)
	}
}

func TestCostTableScaled(t *testing.T) {
	tab := testTable()
	s, err := tab.Scaled(map[string]float64{"dW": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Both dW entries (family and specialized) scale; fwd is untouched.
	if got := s.Entries["dW"]; got.FixedNs != 25 || got.NsPerWork != 0.5 {
		t.Errorf("scaled dW = %+v", got)
	}
	if got := s.Entries["dW:dense"]; got.FixedNs != 5 || got.NsPerWork != 2 {
		t.Errorf("scaled dW:dense = %+v", got)
	}
	if got := s.Entries["fwd"]; got != tab.Entries["fwd"] {
		t.Errorf("fwd changed: %+v", got)
	}
	// The original is not mutated.
	if tab.Entries["dW"].FixedNs != 50 {
		t.Errorf("Scaled mutated the receiver: %+v", tab.Entries["dW"])
	}
	// Unknown family errors typed.
	if _, err := tab.Scaled(map[string]float64{"nope": 2}); err == nil {
		t.Fatal("Scaled with unknown family succeeded")
	} else {
		var uk *UnknownOpKindError
		if !errors.As(err, &uk) || uk.Kind != "nope" {
			t.Fatalf("Scaled error = %v, want UnknownOpKindError{nope}", err)
		}
	}
}

func TestDefaultCostTable(t *testing.T) {
	tab := DefaultCostTable(V100Profile())
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"fwd", "dO", "dW", "reduce", "loss", "update", "zeroGrad"} {
		d, err := tab.Cost(fam, 1e6)
		if err != nil {
			t.Fatalf("default table misses family %q: %v", fam, err)
		}
		if d < V100Profile().MinKernel {
			t.Errorf("family %q at 1e6 work = %v, below the kernel floor", fam, d)
		}
	}
	// δW runs at lower occupancy → more ns per element than forward.
	if tab.Entries["dW"].NsPerWork <= tab.Entries["fwd"].NsPerWork {
		t.Error("default dW slope should exceed fwd slope")
	}
}

func TestRetimed(t *testing.T) {
	m := ResNet(V100Profile(), 50, 32, ImageNet)
	tab := DefaultCostTable(m.Profile)
	rt, err := Retimed(m, tab)
	if err != nil {
		t.Fatal(err)
	}
	if rt.NumLayers() != m.NumLayers() || rt.Name != m.Name || rt.Batch != m.Batch {
		t.Fatal("Retimed changed model structure")
	}
	for i, l := range rt.Layers {
		orig := m.Layers[i]
		if l.ParamBytes != orig.ParamBytes || l.FwdKernels != orig.FwdKernels || l.FwdBlocks != orig.FwdBlocks {
			t.Fatalf("layer %d: non-time fields changed", i)
		}
		work := float64(orig.ActBytes)/4 + float64(orig.OutBytes)/4 + float64(orig.ParamBytes)/4
		want, err := tab.Cost("fwd", work)
		if err != nil {
			t.Fatal(err)
		}
		if want <= 0 {
			want = 1
		}
		if l.Fwd != want {
			t.Fatalf("layer %d Fwd = %v, want %v", i, l.Fwd, want)
		}
	}
	// The original model is untouched.
	if m.Layers[0].Fwd == rt.Layers[0].Fwd && m.Layers[0].Fwd == 0 {
		t.Fatal("original model mutated")
	}
	// A table missing a family surfaces the typed error.
	bad := &CostTable{Name: "partial", Entries: map[string]CostEntry{"fwd": {FixedNs: 1}}}
	if _, err := Retimed(m, bad); err == nil {
		t.Fatal("Retimed with partial table succeeded")
	} else {
		var uk *UnknownOpKindError
		if !errors.As(err, &uk) {
			t.Fatalf("Retimed error %T, want *UnknownOpKindError", err)
		}
	}
}
