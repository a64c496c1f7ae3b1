package plansvc

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
)

// maxBatchItems bounds a single POST /v1/plan:batch request.
const maxBatchItems = 64

// BatchRequest is the body of POST /v1/plan:batch: many plan requests under
// one admission slot. Sweep-style clients (plan every model of a zoo, or one
// model across GPU counts) pay queue/admission overhead once instead of per
// item, and duplicate specs inside the batch are deduplicated to a single
// planner execution whose body fans out byte-identically.
type BatchRequest struct {
	Requests []PlanRequest `json:"requests"`
	// TimeoutMillis bounds the whole batch's planning time (default: server
	// limit).
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// BatchItemResult is one item of a BatchResponse, in request order. Exactly
// one of Plan and Error is set.
type BatchItemResult struct {
	// Fingerprint is the item's canonical cache key (empty when the item
	// failed validation).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Outcome reports how the body was obtained: hit | computed | collapsed |
	// warm. Duplicate items inside one batch share their fingerprint's
	// outcome.
	Outcome string `json:"outcome,omitempty"`
	// Plan is the plan body — byte-identical across duplicate items and with
	// what POST /v1/plan serves for the same spec.
	Plan json.RawMessage `json:"plan,omitempty"`
	// Error is the item's typed failure (validation, deadline, planner).
	Error *APIError `json:"error,omitempty"`
}

// BatchResponse is the body of a successful POST /v1/plan:batch.
type BatchResponse struct {
	Results []BatchItemResult `json:"results"`
	// Distinct is the number of distinct fingerprints among the valid items.
	Distinct int `json:"distinct"`
	// Deduplicated counts valid items answered by another item's computation
	// in the same batch.
	Deduplicated int `json:"deduplicated"`
}

// PlanBatch computes (or fetches) plans for every item of req under a single
// admission slot. It is the programmatic equivalent of POST /v1/plan:batch.
//
// The path: every item is validated and fingerprinted; items already in the
// LRU or warm cache are answered without admission; the remaining distinct
// fingerprints are admitted as ONE job whose worker computes them in batch
// order, each under the shared singleflight layer — so concurrent batches
// (or concurrent single requests) for the same specs still collapse to one
// planner execution per fingerprint. Per-item failures (bad model, planner
// error) land in that item's Error; PlanBatch itself fails only for malformed
// batches or batch-level admission/deadline errors.
func (s *Service) PlanBatch(ctx context.Context, req *BatchRequest) (*BatchResponse, error) {
	n := len(req.Requests)
	if n == 0 {
		return nil, invalidf("requests", "batch carries no requests")
	}
	if n > maxBatchItems {
		return nil, invalidf("requests", "batch carries %d requests, limit %d", n, maxBatchItems)
	}
	if req.TimeoutMillis < 0 {
		return nil, invalidf("timeout_ms", "must be ≥ 0, got %d", req.TimeoutMillis)
	}
	s.met.batchItems.Add(int64(n))

	ctx, cancel := context.WithTimeout(ctx, s.planDeadline(req.TimeoutMillis))
	defer cancel()

	resp := &BatchResponse{Results: make([]BatchItemResult, n)}
	specs := make([]*planSpec, n)
	fps := make([]string, n)
	// Distinct fingerprints in first-appearance order; itemsOf fans a
	// fingerprint's entry out to every item that asked for it.
	var order []string
	itemsOf := make(map[string][]int)
	for i := range req.Requests {
		sp, err := normalize(&req.Requests[i])
		if err != nil {
			resp.Results[i].Error = asAPIError(err)
			continue
		}
		specs[i], fps[i] = sp, s.key(sp)
		resp.Results[i].Fingerprint = fps[i]
		if _, seen := itemsOf[fps[i]]; !seen {
			order = append(order, fps[i])
		} else {
			resp.Deduplicated++
			s.met.batchDeduped.Inc()
		}
		itemsOf[fps[i]] = append(itemsOf[fps[i]], i)
	}
	resp.Distinct = len(order)

	deliver := func(fp string, entry *cachedPlan, outcome string, err error) {
		for _, i := range itemsOf[fp] {
			if err != nil {
				resp.Results[i].Error = asAPIError(err)
				continue
			}
			resp.Results[i].Outcome = outcome
			resp.Results[i].Plan = json.RawMessage(entry.body)
		}
	}

	// Pass 1: serve whatever the LRU or warm cache already holds — these
	// never need the admission queue. cachedDo's run is only reached on a
	// true miss, so pending collects exactly the fingerprints that need a
	// planner (or a wait on an in-flight twin).
	var pending []string
	for _, fp := range order {
		if entry, ok := s.cache.Get(fp); ok {
			s.met.cacheHits.Inc()
			deliver(fp, entry, OutcomeHit, nil)
			continue
		}
		if e := s.warmLookup(fp, specs[itemsOf[fp][0]]); e != nil {
			s.cache.Add(fp, e)
			deliver(fp, e, OutcomeWarm, nil)
			continue
		}
		pending = append(pending, fp)
	}

	if len(pending) > 0 {
		// One admission slot for the whole remainder. Inside the job, each
		// fingerprint goes through the shared singleflight layer with the
		// direct compute function — no per-item re-admission — so identical
		// concurrent work still collapses service-wide. safeCompute guards
		// every inner computation: a panic can neither kill the batch's
		// siblings nor leak a singleflight entry.
		type batchOut struct {
			entry   *cachedPlan
			outcome string
			err     error
		}
		outs := make(map[string]*batchOut, len(pending))
		_, err := s.execute(ctx, "plan batch", func() (*cachedPlan, error) {
			for _, fp := range pending {
				sp := specs[itemsOf[fp][0]]
				entry, outcome, err := s.cachedDo(ctx, fp, sp, func() (*cachedPlan, error) {
					return s.safeCompute("plan batch "+sp.Mode, func() (*cachedPlan, error) {
						return s.compute(sp)
					})
				})
				outs[fp] = &batchOut{entry: entry, outcome: outcome, err: err}
				if ctx.Err() != nil {
					break
				}
			}
			return nil, nil
		})
		if err != nil {
			// Admission failed (shed, draining) or the batch deadline
			// expired before the job finished: batch-level error.
			if ctx.Err() != nil {
				s.met.deadline.Inc()
				err = &APIError{Code: CodeDeadlineExceeded, Message: "batch planning did not complete before the request deadline"}
			}
			return nil, err
		}
		for _, fp := range pending {
			out := outs[fp]
			if out == nil {
				out = &batchOut{err: &APIError{Code: CodeDeadlineExceeded, Message: "batch deadline expired before this item was planned"}}
			}
			deliver(fp, out.entry, out.outcome, out.err)
		}
	}
	return resp, nil
}

// asAPIError coerces any planning-path error into the typed envelope.
func asAPIError(err error) *APIError {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return &APIError{Code: CodeDeadlineExceeded, Message: "request cancelled or deadline exceeded"}
	}
	return &APIError{Code: CodeInternal, Message: err.Error()}
}

// handleBatch is POST /v1/plan:batch.
func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.met.requests.Inc()
	s.met.batchRequests.Inc()
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)

	var req BatchRequest
	if _, err := readStrict(w, r, &req); err != nil {
		s.met.badRequests.Inc()
		s.writeTypedError(w, err)
		return
	}
	resp, err := s.PlanBatch(r.Context(), &req)
	if err != nil {
		if apiErr := asAPIError(err); apiErr.Code == CodeInvalidRequest {
			s.met.badRequests.Inc()
		}
		s.writeTypedError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
