// Package calib closes the loop between the repo's two truths: the real CPU
// training path (internal/train) and the simulator/planner stack
// (internal/models, internal/sim, internal/gpusim, internal/plansvc).
//
// It follows Daydream's recipe (Zhu et al.): a Profiler hooked into the real
// executors collects per-layer/per-op-kind durations into a deterministic
// JSON Profile (median + MAD over warm steps); Fit least-squares the
// measurements into a models.CostTable; Validate replays the profiled
// workload through the analytic iteration simulator and reports the
// simulated-vs-measured iteration-time error (MAPE, CI-checked on committed
// fixtures); and WhatIf perturbs a fitted table ("δW kernels 2× faster",
// "bandwidth doubled") for re-simulation — the estimation API plansvc's
// /v1/whatif endpoint and `oooexp calib` expose.
package calib

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// OpKind identifies one instrumented operation class of the real training
// step. The compact integer form keeps the Profiler's warm recording path
// allocation-free; the JSON form is the String value.
type OpKind uint8

const (
	// OpFwd is one layer's forward computation.
	OpFwd OpKind = iota
	// OpDO is one layer's output-gradient (δO) computation.
	OpDO
	// OpDW is one layer's weight-gradient (δW) computation executed inline
	// (serial walk, concurrent pool, or pipeline with fill disabled).
	OpDW
	// OpDWFill is a δW executed out-of-order inside a pipeline bubble. Same
	// computation as OpDW — it shares the "dW" cost-table family — but kept
	// distinct so fill behaviour is visible in profiles.
	OpDWFill
	// OpReduce is one data-parallel gradient bucket reduction.
	OpReduce
	// OpLoss is the loss + loss-gradient computation (layer 0).
	OpLoss
	// OpUpdate is the optimizer step (layer 0).
	OpUpdate
	// OpZero is the start-of-step gradient zeroing (layer 0).
	OpZero

	numOpKinds = int(OpZero) + 1
)

var opKindNames = [numOpKinds]string{"fwd", "dO", "dW", "dWFill", "reduce", "loss", "update", "zeroGrad"}

func (k OpKind) String() string {
	if int(k) < numOpKinds {
		return opKindNames[k]
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// CostFamily maps the op kind to its models.CostTable family. OpDWFill folds
// into "dW": bubble-filled δW is the same kernel in a different schedule slot.
func (k OpKind) CostFamily() string {
	if k == OpDWFill {
		return opKindNames[OpDW]
	}
	return k.String()
}

// ParseOpKind inverts String.
func ParseOpKind(s string) (OpKind, error) {
	for i, n := range opKindNames {
		if n == s {
			return OpKind(i), nil
		}
	}
	return 0, fmt.Errorf("calib: unknown op kind %q", s)
}

// OpStat is the aggregated timing of one (kind, layer) op across the warm
// steps of a profiled run.
type OpStat struct {
	// Kind is the OpKind string form.
	Kind string `json:"kind"`
	// Layer is the 1-based global layer index; 0 for step-scoped ops
	// (loss/update/zeroGrad) and the first member layer for reduce buckets.
	Layer int `json:"layer"`
	// LayerType names the layer implementation ("dense", "conv2d", ...),
	// empty for step-scoped ops. It specializes cost-table keys.
	LayerType string `json:"layer_type,omitempty"`
	// Work is the op's size feature: elements touched per execution
	// (input + output + parameter elements), frozen at first observation.
	Work float64 `json:"work"`
	// Samples is the number of warm executions aggregated.
	Samples int `json:"samples"`
	// MedianNs and MADNs are the sample median and the median absolute
	// deviation from it, in nanoseconds.
	MedianNs int64 `json:"median_ns"`
	MADNs    int64 `json:"mad_ns"`
}

// CostKey is the models.CostTable key this stat fits into:
// "family:layertype" when typed, else the bare family.
func (s OpStat) CostKey() string {
	k, err := ParseOpKind(s.Kind)
	if err != nil {
		return s.Kind
	}
	fam := k.CostFamily()
	if s.LayerType == "" {
		return fam
	}
	return fam + ":" + s.LayerType
}

// NetProfile is one profiled workload: a network trained for some steps on
// one engine.
type NetProfile struct {
	// Net names the workload ("mlp", "conv", ...).
	Net string `json:"net"`
	// Engine names the execution engine ("serial", "concurrent", "pipeline",
	// "datapar"). Validate replays only serial profiles: the others overlap
	// ops across goroutines, so their wall time is not the op sum.
	Engine string `json:"engine"`
	// Layers is the network depth L.
	Layers int `json:"layers"`
	// WarmSteps is the number of post-warmup steps aggregated.
	WarmSteps int `json:"warm_steps"`
	// IterMedianNs / IterMADNs aggregate the full measured step wall time.
	IterMedianNs int64 `json:"iter_median_ns"`
	IterMADNs    int64 `json:"iter_mad_ns"`
	// Ops holds the per-op stats, sorted by (layer, kind).
	Ops []OpStat `json:"ops"`
}

// Profile is the JSON-serializable result of a profiling session.
type Profile struct {
	Version int          `json:"version"`
	Nets    []NetProfile `json:"nets"`
}

// ProfileVersion is the current Profile schema version.
const ProfileVersion = 1

// Validate checks structural and numeric sanity of a profile (also the
// acceptance predicate of the JSON fuzz round-trip).
func (p *Profile) Validate() error {
	if p.Version != ProfileVersion {
		return fmt.Errorf("calib: profile version %d, want %d", p.Version, ProfileVersion)
	}
	if len(p.Nets) == 0 {
		return fmt.Errorf("calib: profile has no nets")
	}
	seen := make(map[string]bool, len(p.Nets))
	for i := range p.Nets {
		n := &p.Nets[i]
		if n.Net == "" {
			return fmt.Errorf("calib: net %d has no name", i)
		}
		if seen[n.Net] {
			return fmt.Errorf("calib: duplicate net %q", n.Net)
		}
		seen[n.Net] = true
		if n.Engine == "" {
			return fmt.Errorf("calib: net %q has no engine", n.Net)
		}
		if n.Layers < 1 {
			return fmt.Errorf("calib: net %q has %d layers", n.Net, n.Layers)
		}
		if n.WarmSteps < 1 {
			return fmt.Errorf("calib: net %q has %d warm steps", n.Net, n.WarmSteps)
		}
		if n.IterMedianNs <= 0 || n.IterMADNs < 0 {
			return fmt.Errorf("calib: net %q has bad iteration stats %d/%d", n.Net, n.IterMedianNs, n.IterMADNs)
		}
		if len(n.Ops) == 0 {
			return fmt.Errorf("calib: net %q has no ops", n.Net)
		}
		for j, s := range n.Ops {
			if _, err := ParseOpKind(s.Kind); err != nil {
				return fmt.Errorf("calib: net %q op %d: %w", n.Net, j, err)
			}
			if s.Layer < 0 || s.Layer > n.Layers {
				return fmt.Errorf("calib: net %q op %d: layer %d outside 0..%d", n.Net, j, s.Layer, n.Layers)
			}
			if math.IsNaN(s.Work) || math.IsInf(s.Work, 0) || s.Work < 0 {
				return fmt.Errorf("calib: net %q op %d: bad work %v", n.Net, j, s.Work)
			}
			if s.Samples < 1 {
				return fmt.Errorf("calib: net %q op %d: %d samples", n.Net, j, s.Samples)
			}
			if s.MedianNs < 0 || s.MADNs < 0 {
				return fmt.Errorf("calib: net %q op %d: negative stats", n.Net, j)
			}
			if strings.ContainsAny(s.LayerType, ": \t\n") {
				return fmt.Errorf("calib: net %q op %d: bad layer type %q", n.Net, j, s.LayerType)
			}
		}
	}
	return nil
}

// sortOps orders ops canonically by (layer, kind index, layer type).
func sortOps(ops []OpStat) {
	sort.Slice(ops, func(i, j int) bool {
		a, b := ops[i], ops[j]
		if a.Layer != b.Layer {
			return a.Layer < b.Layer
		}
		ka, _ := ParseOpKind(a.Kind)
		kb, _ := ParseOpKind(b.Kind)
		if ka != kb {
			return ka < kb
		}
		return a.LayerType < b.LayerType
	})
}

// WriteJSON renders the profile as canonical indented JSON.
func (p *Profile) WriteJSON() ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	buf, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// ReadProfileJSON parses and validates a profile written by WriteJSON.
func ReadProfileJSON(data []byte) (*Profile, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var p Profile
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("calib: parse profile: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}
