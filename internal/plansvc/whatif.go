package plansvc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"oooback/internal/calib"
	"oooback/internal/netsim"
)

// WhatIfRequest is the body of POST /v1/whatif: a plan request plus a
// Daydream-style perturbation of the cost model. The service plans the
// request twice — as-is and under the perturbation — and reports both, so a
// caller can ask "what if δW kernels were 2× faster?" or "what if the
// interconnect had 4× the bandwidth?" without owning the hardware.
type WhatIfRequest struct {
	PlanRequest
	// ScaleOpKind maps cost families to duration multipliers (0.5 = twice as
	// fast). The families a layer-cost model carries: fwd, dO, dW.
	ScaleOpKind map[string]float64 `json:"scale_op_kind,omitempty"`
	// ScaleBandwidth multiplies every link's bandwidth (2 = twice the
	// bandwidth); 0 or 1 means unchanged.
	ScaleBandwidth float64 `json:"scale_bandwidth,omitempty"`
}

// WhatIfResponse is the body of a successful POST /v1/whatif. Like
// PlanResponse it is a pure function of the normalized request, so cached
// responses are byte-identical.
type WhatIfResponse struct {
	// Fingerprint is the canonical what-if fingerprint (the cache key).
	Fingerprint string `json:"fingerprint"`
	// ScaleOpKind and ScaleBandwidth echo the normalized perturbation
	// (identity factors removed).
	ScaleOpKind    map[string]float64 `json:"scale_op_kind,omitempty"`
	ScaleBandwidth float64            `json:"scale_bandwidth,omitempty"`
	// Base is the plan of the unperturbed request.
	Base *PlanResponse `json:"base"`
	// WhatIf is the plan under the perturbed cost model. Schedule choices
	// (k, allocation, regions) may differ from Base — the planner re-optimizes
	// for the perturbed costs.
	WhatIf *PlanResponse `json:"what_if"`
	// IterSpeedup is Base.IterTimeNs / WhatIf.IterTimeNs: how much faster one
	// optimized iteration gets under the perturbation.
	IterSpeedup float64 `json:"iter_speedup"`
}

// whatifSpec is the normalized form of a WhatIfRequest; its canonical JSON
// encoding (maps marshal with sorted keys) is the fingerprint input.
type whatifSpec struct {
	Plan           *planSpec          `json:"plan"`
	ScaleOpKind    map[string]float64 `json:"scale_op_kind,omitempty"`
	ScaleBandwidth float64            `json:"scale_bandwidth,omitempty"`
}

// normalizeWhatIf validates req and resolves it into a whatifSpec. Identity
// factors (1, or 0 for bandwidth) are dropped so semantically identical
// perturbations share a fingerprint.
func normalizeWhatIf(req *WhatIfRequest) (*whatifSpec, error) {
	sp, err := normalize(&req.PlanRequest)
	if err != nil {
		return nil, err
	}
	w := calib.WhatIf{ScaleOpKind: req.ScaleOpKind, ScaleBandwidth: req.ScaleBandwidth}
	if err := w.Validate(calib.ModelFamilies()...); err != nil {
		return nil, invalidf("what_if", "%v", err)
	}
	ws := &whatifSpec{Plan: sp}
	for k, v := range req.ScaleOpKind {
		if v != 1 {
			if ws.ScaleOpKind == nil {
				ws.ScaleOpKind = make(map[string]float64, len(req.ScaleOpKind))
			}
			ws.ScaleOpKind[k] = v
		}
	}
	if b := req.ScaleBandwidth; b != 0 && b != 1 {
		ws.ScaleBandwidth = b
	}
	return ws, nil
}

// fingerprint returns the canonical cache key of the normalized what-if.
// The "whatif:" prefix keeps the keyspace disjoint from plan fingerprints.
func (ws *whatifSpec) fingerprint() string {
	b, err := json.Marshal(ws)
	if err != nil {
		panic(fmt.Errorf("plansvc: whatif fingerprint marshal: %w", err))
	}
	sum := sha256.Sum256(append([]byte("whatif:"), b...))
	return hex.EncodeToString(sum[:])
}

// The spec methods of a what-if request.
func (ws *whatifSpec) base() *planSpec       { return ws.Plan }
func (ws *whatifSpec) kind() string          { return "whatif" }
func (ws *whatifSpec) newResponse() response { return new(WhatIfResponse) }

func (ws *whatifSpec) compute(s *Service) (response, error) {
	resp, err := s.planner.whatif(ws)
	if err != nil {
		return nil, err
	}
	s.recordSearchStats(resp.Base.SearchStats)
	s.recordSearchStats(resp.WhatIf.SearchStats)
	return resp, nil
}

func (r *WhatIfResponse) fingerprint() string { return r.Fingerprint }

// whatif plans the request twice — unperturbed, and with layer costs scaled
// via calib.WhatIf.ApplyModel plus bandwidth-scaled links — re-running the
// full schedule search on the perturbed model so the optimizer can pick a
// different k / allocation under the new cost balance.
func (p *planner) whatif(ws *whatifSpec) (*WhatIfResponse, error) {
	base, err := p.plan(ws.Plan)
	if err != nil {
		return nil, err
	}
	scaled := *ws.Plan
	if len(ws.ScaleOpKind) > 0 {
		w := calib.WhatIf{ScaleOpKind: ws.ScaleOpKind}
		m, err := w.ApplyModel(p.model(ws.Plan))
		if err != nil {
			return nil, invalidf("what_if", "%v", err)
		}
		scaled.model = m
	}
	// The perturbation fields enter the scaled spec's fingerprint, so the
	// inner what_if plan never collides with the base plan in the cache.
	scaled.WhatIfScales = ws.ScaleOpKind
	scaled.BwScale = ws.ScaleBandwidth
	pert, err := p.plan(&scaled)
	if err != nil {
		return nil, err
	}
	resp := &WhatIfResponse{
		Fingerprint:    ws.fingerprint(),
		ScaleOpKind:    ws.ScaleOpKind,
		ScaleBandwidth: ws.ScaleBandwidth,
		Base:           base,
		WhatIf:         pert,
	}
	if pert.IterTimeNs > 0 {
		resp.IterSpeedup = float64(base.IterTimeNs) / float64(pert.IterTimeNs)
	}
	return resp, nil
}

// scaleLink multiplies a link's bandwidth (communication time ∝ 1/bandwidth).
func scaleLink(l netsim.LinkSpec, b float64) netsim.LinkSpec {
	l.Bandwidth *= b
	return l
}
