package calib

import (
	"fmt"
	"math"
	"time"

	"oooback/internal/core"
	"oooback/internal/models"
)

// WhatIf is a Daydream-style perturbation of a fitted cost model: "what
// would the iteration time be if these op kinds got this much faster and the
// network this much wider?" Factors are duration multipliers — 0.5 under
// ScaleOpKind["dW"] means every δW costs half as long (2× faster kernels);
// ScaleBandwidth is a bandwidth multiplier — 2 halves communication time.
type WhatIf struct {
	// ScaleOpKind maps cost families (fwd, dO, dW, reduce, loss, update,
	// zeroGrad) to duration multipliers.
	ScaleOpKind map[string]float64 `json:"scale_op_kind,omitempty"`
	// ScaleBandwidth multiplies link bandwidth; 0 means unchanged.
	ScaleBandwidth float64 `json:"scale_bandwidth,omitempty"`
}

// scaleBounds clamp what-if factors to a sane range (a millionfold kernel
// speedup is a typo, not a question).
const (
	minScale = 1e-3
	maxScale = 1e3
)

// Validate checks factor ranges and op-kind names. allowed, if non-empty,
// restricts the accepted families (plansvc's model-level what-if supports
// only the families a models.Layer carries).
func (w WhatIf) Validate(allowed ...string) error {
	for kind, s := range w.ScaleOpKind {
		k, err := ParseOpKind(kind)
		if err != nil || k.CostFamily() != kind {
			return fmt.Errorf("calib: scale_op_kind: unknown op kind %q (want one of %v)", kind, Families())
		}
		if len(allowed) > 0 {
			ok := false
			for _, a := range allowed {
				if a == kind {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("calib: scale_op_kind: kind %q not supported here (want one of %v)", kind, allowed)
			}
		}
		if math.IsNaN(s) || s < minScale || s > maxScale {
			return fmt.Errorf("calib: scale_op_kind[%q] = %v outside [%v, %v]", kind, s, minScale, maxScale)
		}
	}
	if b := w.ScaleBandwidth; b != 0 {
		if math.IsNaN(b) || b < minScale || b > maxScale {
			return fmt.Errorf("calib: scale_bandwidth = %v outside [%v, %v]", b, minScale, maxScale)
		}
	}
	return nil
}

// Families lists the valid ScaleOpKind keys (cost families; dWFill folds
// into dW).
func Families() []string {
	fams := make([]string, 0, numOpKinds)
	seen := map[string]bool{}
	for k := 0; k < numOpKinds; k++ {
		f := OpKind(k).CostFamily()
		if !seen[f] {
			seen[f] = true
			fams = append(fams, f)
		}
	}
	return fams
}

// Apply returns a copy of the table under the perturbation: op-kind factors
// scale their families' entries, and ScaleBandwidth divides the "reduce"
// family (communication time ∝ 1/bandwidth) when the table has one.
func (w WhatIf) Apply(t *models.CostTable) (*models.CostTable, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	scale := make(map[string]float64, len(w.ScaleOpKind)+1)
	for k, s := range w.ScaleOpKind {
		scale[k] = s
	}
	if b := w.ScaleBandwidth; b != 0 && b != 1 {
		reduceFam := OpReduce.CostFamily()
		if _, ok := scale[reduceFam]; ok {
			return nil, fmt.Errorf("calib: scale_bandwidth and scale_op_kind[%q] both set", reduceFam)
		}
		hasReduce := false
		for key := range t.Entries {
			if models.OpFamily(key) == reduceFam {
				hasReduce = true
				break
			}
		}
		if hasReduce {
			scale[reduceFam] = 1 / b
		}
	}
	if len(scale) == 0 {
		return t.Scaled(nil)
	}
	out, err := t.Scaled(scale)
	if err != nil {
		return nil, err
	}
	out.Name = t.Name + "+whatif"
	return out, nil
}

// ModelFamilies are the cost families a models.Layer carries — the ones a
// model-level what-if (ApplyModel, plansvc /v1/whatif) can scale.
func ModelFamilies() []string { return []string{"fwd", "dO", "dW"} }

// ApplyModel returns a copy of m with layer durations scaled by the op-kind
// factors. Only fwd/dO/dW apply to a layer-cost model; other families are
// rejected by Validate(ModelFamilies()...). Bandwidth is not a model
// property — callers scale their link specs separately.
func (w WhatIf) ApplyModel(m *models.Model) (*models.Model, error) {
	if err := w.Validate(ModelFamilies()...); err != nil {
		return nil, err
	}
	out := *m
	out.Layers = append([]models.Layer(nil), m.Layers...)
	for kind, s := range w.ScaleOpKind { // each kind scales its own field: any order
		for i := range out.Layers {
			switch kind {
			case "fwd":
				out.Layers[i].Fwd = scaleDur(out.Layers[i].Fwd, s)
			case "dO":
				out.Layers[i].DO = scaleDur(out.Layers[i].DO, s)
			case "dW":
				out.Layers[i].DW = scaleDur(out.Layers[i].DW, s)
			}
		}
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return &out, nil
}

// ApplyCosts returns a copy of a reverse-first-k cost vector under the
// perturbation: op-kind factors scale the compute columns, bandwidth divides
// the synchronization service times (communication time ∝ 1/bandwidth).
// Aggregation lags are latency, not bandwidth, and stay fixed.
func (w WhatIf) ApplyCosts(c core.IterCosts) core.IterCosts {
	out := core.IterCosts{
		F:       append([]time.Duration(nil), c.F...),
		DO:      append([]time.Duration(nil), c.DO...),
		DW:      append([]time.Duration(nil), c.DW...),
		SyncW:   append([]time.Duration(nil), c.SyncW...),
		SyncLag: c.SyncLag, // latency, unperturbed; never mutated here
	}
	scaleCol := func(col []time.Duration, s float64) {
		for i, d := range col {
			col[i] = scaleDur(d, s)
		}
	}
	for kind, s := range w.ScaleOpKind {
		switch kind {
		case "fwd":
			scaleCol(out.F, s)
		case "dO":
			scaleCol(out.DO, s)
		case "dW":
			scaleCol(out.DW, s)
		}
	}
	if b := w.ScaleBandwidth; b != 0 && b != 1 {
		scaleCol(out.SyncW, 1/b)
	}
	return out
}

// scaleDur rounds d·s to the nearest ns and keeps positive durations
// positive: Model.Validate and the simulator require positive compute times.
func scaleDur(d time.Duration, s float64) time.Duration {
	out := time.Duration(math.Round(float64(d) * s))
	if out < 1 && d > 0 {
		out = 1
	}
	return out
}
