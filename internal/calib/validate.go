package calib

import (
	"fmt"
	"math"
	"time"

	"oooback/internal/core"
	"oooback/internal/graph"
	"oooback/internal/models"
)

// DefaultMAPEThreshold is the CI gate on simulated-vs-measured iteration
// time: a fitted table must land every profiled net within 15%.
const DefaultMAPEThreshold = 0.15

// NetAccuracy is one net's simulated-vs-measured comparison.
type NetAccuracy struct {
	Net         string
	MeasuredNs  int64
	SimulatedNs int64
	// APE is |simulated − measured| / measured.
	APE float64
}

// Accuracy is Validate's report.
type Accuracy struct {
	Table  string
	PerNet []NetAccuracy
	// MAPE is the mean APE across nets.
	MAPE float64
}

// SimulateNet predicts one profiled net's iteration time from a cost table:
// per-layer F/δO/δW durations are evaluated at the profile's recorded work
// features and replayed through the analytic iteration simulator
// (core.SimulateIteration, conventional schedule, no parameter syncs — the
// single-device serial timeline the real executor ran), plus the step-scoped
// ops (loss, update, zeroGrad, reduce) the simulator's compute timeline does
// not model. Every layer needs fwd, δO and δW stats except δO_1: the real
// engines never run it (it feeds nothing), so a live profile has none and it
// costs zero.
func SimulateNet(n *NetProfile, t *models.CostTable) (time.Duration, error) {
	L := n.Layers
	costs := core.IterCosts{
		F:     make([]time.Duration, L),
		DO:    make([]time.Duration, L),
		DW:    make([]time.Duration, L),
		SyncW: make([]time.Duration, L),
	}
	haveF := make([]bool, L)
	haveDO := make([]bool, L)
	haveDW := make([]bool, L)
	var extra time.Duration
	for _, s := range n.Ops {
		kind, err := ParseOpKind(s.Kind)
		if err != nil {
			return 0, err
		}
		d, err := t.Cost(s.CostKey(), s.Work)
		if err != nil {
			return 0, fmt.Errorf("calib: net %q: %w", n.Net, err)
		}
		switch kind {
		case OpFwd:
			costs.F[s.Layer-1] += d
			haveF[s.Layer-1] = true
		case OpDO:
			costs.DO[s.Layer-1] += d
			haveDO[s.Layer-1] = true
		case OpDW, OpDWFill:
			costs.DW[s.Layer-1] += d
			haveDW[s.Layer-1] = true
		default: // loss, update, zeroGrad, reduce: step-scoped serial additions
			extra += d
		}
	}
	for i := 0; i < L; i++ {
		if !haveF[i] || (!haveDO[i] && i > 0) || !haveDW[i] {
			return 0, fmt.Errorf("calib: net %q: layer %d missing fwd/dO/dW stats (have %v/%v/%v)",
				n.Net, i+1, haveF[i], haveDO[i], haveDW[i])
		}
	}
	var scratch core.IterScratch
	res := scratch.SimulateIteration(costs, graph.Conventional(L), nil, false)
	return res.Makespan + extra, nil
}

// Validate replays every serially-profiled net of p through the simulator
// under table t and reports the per-net and mean absolute percentage error
// of simulated vs measured iteration time. Nets profiled on overlapping
// engines (concurrent, pipeline, datapar) are skipped: their measured wall
// is not the serial op sum the single-device simulator predicts.
func Validate(p *Profile, t *models.CostTable) (Accuracy, error) {
	if err := p.Validate(); err != nil {
		return Accuracy{}, err
	}
	acc := Accuracy{Table: t.Name}
	for i := range p.Nets {
		n := &p.Nets[i]
		if n.Engine != "serial" {
			continue
		}
		sim, err := SimulateNet(n, t)
		if err != nil {
			return Accuracy{}, err
		}
		meas := n.IterMedianNs
		ape := math.Abs(float64(sim.Nanoseconds())-float64(meas)) / float64(meas)
		acc.PerNet = append(acc.PerNet, NetAccuracy{
			Net:         n.Net,
			MeasuredNs:  meas,
			SimulatedNs: sim.Nanoseconds(),
			APE:         ape,
		})
		acc.MAPE += ape
	}
	if len(acc.PerNet) == 0 {
		return Accuracy{}, fmt.Errorf("calib: profile has no serially-profiled nets to validate")
	}
	acc.MAPE /= float64(len(acc.PerNet))
	return acc, nil
}
