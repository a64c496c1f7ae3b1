package trace

import (
	"strings"
	"testing"
	"time"
)

func TestWindowUtilization(t *testing.T) {
	tr := &Trace{}
	tr.Add("g0", "a", "fwd", 100, 150)
	tr.Add("g0", "b", "fwd", 150, 200)
	// Whole-run utilization is diluted by the [0,100) prefix; the windowed
	// one is exact.
	if got := tr.Utilization("g0"); got != 0.5 {
		t.Fatalf("Utilization = %v, want 0.5", got)
	}
	if got := tr.WindowUtilization("g0"); got != 1.0 {
		t.Fatalf("WindowUtilization = %v, want 1.0", got)
	}
	if got := tr.MeanWindowUtilization(); got != 1.0 {
		t.Fatalf("MeanWindowUtilization = %v, want 1.0", got)
	}
}

func TestWindowUtilizationEmpty(t *testing.T) {
	tr := &Trace{}
	if tr.WindowUtilization("x") != 0 || tr.MeanWindowUtilization() != 0 {
		t.Fatal("empty trace utilization should be 0")
	}
	if tr.WindowStart() != 0 {
		t.Fatal("empty trace window start should be 0")
	}
}

func TestShifted(t *testing.T) {
	tr := &Trace{}
	tr.Add("g0", "a", "fwd", 100, 150)
	tr.Add("g1", "b", "dW", 120, 180)
	s := tr.Shifted()
	if s.Spans[0].Start != 0 || s.Spans[0].End != 50 {
		t.Fatalf("shifted span 0 = %+v", s.Spans[0])
	}
	if s.Spans[1].Start != 20 {
		t.Fatalf("shifted span 1 = %+v", s.Spans[1])
	}
	// The original is untouched.
	if tr.Spans[0].Start != 100 {
		t.Fatal("Shifted mutated the source")
	}
}

func TestRenderKindGlyphs(t *testing.T) {
	tr := &Trace{}
	kinds := []struct {
		kind string
		ch   string
	}{
		{"fwd", "F"}, {"dO", "O"}, {"dW", "W"}, {"comm", "~"},
		{"issue", "i"}, {"update", "U"}, {"other", "#"},
	}
	for i, k := range kinds {
		tr.Add("lane"+k.kind, "x", k.kind, time.Duration(i)*10, time.Duration(i)*10+9)
	}
	out := tr.Render(70)
	for _, k := range kinds {
		if !strings.Contains(out, k.ch) {
			t.Fatalf("render missing glyph %q for kind %q:\n%s", k.ch, k.kind, out)
		}
	}
}

func TestRenderDefaultWidth(t *testing.T) {
	tr := &Trace{}
	tr.Add("g", "x", "fwd", 0, 10)
	out := tr.Render(0) // default 100 cells
	line := strings.Split(out, "\n")[0]
	if len(line) < 100 {
		t.Fatalf("default width row too short: %d", len(line))
	}
}

func TestRenderZeroLengthSpanStillVisible(t *testing.T) {
	// Later spans overdraw earlier ones; the zero-length tick drawn last
	// must still occupy one cell.
	tr := &Trace{}
	tr.Add("g", "body", "dO", 0, 100)
	tr.Add("g", "tick", "fwd", 50, 50)
	out := tr.Render(20)
	if !strings.Contains(out, "F") {
		t.Fatalf("zero-length span invisible:\n%s", out)
	}
}
