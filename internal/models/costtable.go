package models

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// This file defines the CostTable — the exchange format between the
// calibration subsystem (internal/calib, which fits tables from measured
// per-op timings of the real executor) and the simulator stack (which
// consumes per-layer durations). A table maps op-kind keys to linear cost
// laws d ≈ FixedNs + NsPerWork·work, where work is the op's "elements
// touched" feature (input + output + parameter elements).
//
// Keys come in two granularities: a bare family ("fwd", "dO", "dW",
// "reduce", "loss", "update", "zeroGrad") and a layer-type-specialized form
// "family:layertype" (e.g. "dW:dense", "fwd:conv2d"). Lookups try the exact
// key first and fall back to the family; a key matching neither returns a
// typed *UnknownOpKindError — never a silent zero cost.

// CostEntry is one linear cost law: duration ≈ FixedNs + NsPerWork·work
// nanoseconds. Samples records how many measured data points backed the fit
// (zero for synthesized defaults).
type CostEntry struct {
	FixedNs   float64 `json:"fixed_ns"`
	NsPerWork float64 `json:"ns_per_work"`
	Samples   int     `json:"samples,omitempty"`
}

// Duration evaluates the law at the given work, clamped to ≥ 0.
func (e CostEntry) Duration(work float64) time.Duration {
	ns := e.FixedNs + e.NsPerWork*work
	if ns < 0 {
		ns = 0
	}
	return time.Duration(math.Round(ns))
}

// CostTable maps op-kind keys to cost laws.
type CostTable struct {
	Name    string               `json:"name"`
	Entries map[string]CostEntry `json:"entries"`
}

// UnknownOpKindError reports a lookup (or scale) of an op kind the table has
// no entry for. Returning it typed — instead of a zero duration — is what
// keeps a miscomputed key from silently zeroing a layer's simulated cost.
type UnknownOpKindError struct {
	Kind  string // the key that missed
	Table string // the table's name, for error context
}

func (e *UnknownOpKindError) Error() string {
	return fmt.Sprintf("models: cost table %q has no entry for op kind %q", e.Table, e.Kind)
}

// OpFamily strips the layer-type specialization from a key: "dW:dense" → "dW".
func OpFamily(kind string) string {
	if i := strings.IndexByte(kind, ':'); i >= 0 {
		return kind[:i]
	}
	return kind
}

// Cost evaluates the cost law for kind at the given work. The exact key is
// tried first, then its family; a miss on both returns *UnknownOpKindError.
func (t *CostTable) Cost(kind string, work float64) (time.Duration, error) {
	if e, ok := t.Entries[kind]; ok {
		return e.Duration(work), nil
	}
	if fam := OpFamily(kind); fam != kind {
		if e, ok := t.Entries[fam]; ok {
			return e.Duration(work), nil
		}
	}
	return 0, &UnknownOpKindError{Kind: kind, Table: t.Name}
}

// Scaled returns a copy of the table with every entry whose family matches a
// key of scale multiplied by that factor (both the fixed and per-work terms:
// a uniformly faster kernel). A scale family that matches no entry returns
// *UnknownOpKindError — a misspelled what-if must not silently no-op.
func (t *CostTable) Scaled(scale map[string]float64) (*CostTable, error) {
	out := &CostTable{Name: t.Name, Entries: make(map[string]CostEntry, len(t.Entries))}
	for k, e := range t.Entries {
		out.Entries[k] = e
	}
	// Deterministic application order (irrelevant numerically — each entry is
	// scaled by exactly one family — but keeps error selection stable).
	fams := make([]string, 0, len(scale))
	for f := range scale {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	for _, f := range fams {
		s := scale[f]
		matched := false
		for k, e := range out.Entries {
			if OpFamily(k) == f {
				e.FixedNs *= s
				e.NsPerWork *= s
				out.Entries[k] = e
				matched = true
			}
		}
		if !matched {
			return nil, &UnknownOpKindError{Kind: f, Table: t.Name}
		}
	}
	return out, nil
}

// Validate checks the table for structural and numeric sanity.
func (t *CostTable) Validate() error {
	if len(t.Entries) == 0 {
		return fmt.Errorf("models: cost table %q has no entries", t.Name)
	}
	for k, e := range t.Entries {
		if k == "" {
			return fmt.Errorf("models: cost table %q has an empty key", t.Name)
		}
		for _, v := range [...]float64{e.FixedNs, e.NsPerWork} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("models: cost table %q entry %q: bad coefficient %v", t.Name, k, v)
			}
		}
		if e.Samples < 0 {
			return fmt.Errorf("models: cost table %q entry %q: negative sample count", t.Name, k)
		}
	}
	return nil
}

// DefaultCostTable synthesizes the hand-written cost laws of this package
// (cost.go's occupancy curve and kernel floor) as a CostTable: saturated
// kernels run at 55% of peak with ≈ 2 FLOPs per touched element, δW kernels
// at a third of the forward occupancy, and the bookkeeping families near the
// kernel floor with memory-bound slopes. It is the baseline calib.Validate
// compares fitted tables against — on CPU-measured profiles it is wildly
// wrong in absolute terms, which is exactly the point of calibrating.
func DefaultCostTable(p GPUProfile) *CostTable {
	computeNs := 2.0 / (p.PeakFLOPS * 0.55) * 1e9 // ns per touched element, saturated
	dwNs := 2.0 / (p.PeakFLOPS * 0.55 * math.Sqrt(1.0/3)) * 1e9
	memNs := 4.0 / 900e9 * 1e9 // ≈ HBM2 streaming, 4 bytes per element
	fixed := float64(p.MinKernel.Nanoseconds())
	return &CostTable{
		Name: "default-" + p.Name,
		Entries: map[string]CostEntry{
			"fwd":      {FixedNs: fixed, NsPerWork: computeNs},
			"dO":       {FixedNs: fixed, NsPerWork: computeNs},
			"dW":       {FixedNs: fixed, NsPerWork: dwNs},
			"reduce":   {FixedNs: fixed, NsPerWork: memNs},
			"loss":     {FixedNs: fixed, NsPerWork: memNs},
			"update":   {FixedNs: fixed, NsPerWork: memNs},
			"zeroGrad": {FixedNs: fixed, NsPerWork: memNs},
		},
	}
}

// Retimed returns a copy of m with every layer's Fwd/DO/DW durations
// re-derived from the table at that layer's work features (elements touched:
// input + output + parameter elements, with the package's 4-byte element
// convention). Kernel counts, block counts and byte sizes are preserved, so
// the simulators' issue/occupancy structure is unchanged — only the time
// axis moves onto the fitted laws. This is how a fitted table is injected
// into the gpusim/sim engines in place of the hand-written defaults.
func Retimed(m *Model, t *CostTable) (*Model, error) {
	out := *m
	out.Layers = make([]Layer, len(m.Layers))
	for i, l := range m.Layers {
		work := float64(l.ActBytes)/4 + float64(l.OutBytes)/4 + float64(l.ParamBytes)/4
		fwd, err := t.Cost("fwd", work)
		if err != nil {
			return nil, err
		}
		do, err := t.Cost("dO", work)
		if err != nil {
			return nil, err
		}
		dw, err := t.Cost("dW", work)
		if err != nil {
			return nil, err
		}
		// Model.Validate requires Fwd > 0; a fitted fixed term can legally be
		// ~0 for trivial layers, so floor at 1ns.
		if fwd <= 0 {
			fwd = 1
		}
		l.Fwd, l.DO, l.DW = fwd, do, dw
		out.Layers[i] = l
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return &out, nil
}
