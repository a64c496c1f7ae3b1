package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("mean = %v", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("geomean = %v", got)
	}
	if GeoMean([]float64{1, -1}) != 0 {
		t.Fatal("geomean with non-positive input should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("model", "speedup")
	tb.Add("densenet", 1.2345)
	tb.Add("rn", "x")
	out := tb.String()
	if !strings.Contains(out, "model") || !strings.Contains(out, "1.23") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4", len(lines))
	}
}

// TestTableAlignsColumns: every column is as wide as its widest cell, the
// rule under the header matches each width, columns are separated by two
// spaces, and float64 cells print with two decimals.
func TestTableAlignsColumns(t *testing.T) {
	tb := NewTable("id", "time")
	tb.Add("resnet-50", 12.0)
	tb.Add("x", 3.14159)
	want := "" +
		"id         time \n" +
		"---------  -----\n" +
		"resnet-50  12.00\n" +
		"x          3.14 \n"
	if got := tb.String(); got != want {
		t.Fatalf("table output:\n%q\nwant:\n%q", got, want)
	}
}

// Property: mean is between min and max.
func TestMeanBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return Mean(xs) == 0
		}
		for _, x := range xs {
			// Skip degenerate inputs: NaN/Inf, and magnitudes where the
			// intermediate sum itself overflows.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e300 {
				return true
			}
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		m := Mean(xs)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
