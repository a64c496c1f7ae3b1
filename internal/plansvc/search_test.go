package plansvc

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
)

// TestSearchFieldValidation pins the request vocabulary of the search field.
func TestSearchFieldValidation(t *testing.T) {
	_, srv := newTestService(t, Options{Workers: 1})

	cases := []struct {
		name   string
		body   string
		status int
		field  string
	}{
		{"default", `{"model":"resnet50","cluster":{"preset":"pub-a","gpus":8}}`, http.StatusOK, ""},
		{"exact", `{"model":"resnet50","cluster":{"preset":"pub-a","gpus":8},"search":"exact"}`, http.StatusOK, ""},
		{"guided", `{"model":"resnet50","cluster":{"preset":"pub-a","gpus":8},"search":"guided"}`, http.StatusOK, ""},
		{"robust", `{"model":"resnet50","cluster":{"preset":"pub-a","gpus":8},"search":"robust"}`, http.StatusOK, ""},
		{"case-insensitive", `{"model":"resnet50","cluster":{"preset":"pub-a","gpus":8},"search":" Guided "}`, http.StatusOK, ""},
		{"unknown", `{"model":"resnet50","cluster":{"preset":"pub-a","gpus":8},"search":"genetic"}`, http.StatusBadRequest, "search"},
		{"pipeline-rejects", `{"model":"resnet50","mode":"pipeline","cluster":{"preset":"pub-a","gpus":4},"search":"guided"}`, http.StatusBadRequest, "search"},
		{"singlegpu-rejects", `{"model":"resnet50","mode":"singlegpu","cluster":{"preset":"pub-a"},"search":"exact"}`, http.StatusBadRequest, "search"},
	}
	for _, tc := range cases {
		resp, b := postPlan(t, srv, tc.body)
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.status, b)
		}
		if tc.field != "" {
			var env struct {
				Error *APIError `json:"error"`
			}
			if err := json.Unmarshal(b, &env); err != nil || env.Error == nil {
				t.Fatalf("%s: no error envelope in %s", tc.name, b)
			}
			if env.Error.Code != CodeInvalidRequest || env.Error.Field != tc.field {
				t.Fatalf("%s: error %+v, want invalid_request on %q", tc.name, env.Error, tc.field)
			}
		}
	}
}

// TestSearchFingerprints: the three strategies never share a cache entry,
// and the default is guided (same fingerprint as explicit guided).
func TestSearchFingerprints(t *testing.T) {
	fps := map[string]string{}
	for _, search := range []string{"", "exact", "guided", "robust"} {
		sp, err := normalize(&PlanRequest{Model: "resnet50", Search: search,
			Cluster: ClusterSpec{Preset: "pub-a", GPUs: 8}})
		if err != nil {
			t.Fatalf("search %q: %v", search, err)
		}
		fps[search] = sp.fingerprint()
	}
	if fps[""] != fps["guided"] {
		t.Fatalf("default fingerprint %s != guided %s", fps[""], fps["guided"])
	}
	for _, a := range []string{"exact", "guided", "robust"} {
		for _, b := range []string{"exact", "guided", "robust"} {
			if a != b && fps[a] == fps[b] {
				t.Fatalf("search %q and %q collide on fingerprint %s", a, b, fps[a])
			}
		}
	}
}

// TestSearchCachedBodiesByteIdentical: for every strategy the second hit
// serves exactly the first body.
func TestSearchCachedBodiesByteIdentical(t *testing.T) {
	_, srv := newTestService(t, Options{Workers: 2})
	for _, search := range []string{"exact", "guided", "robust"} {
		body := fmt.Sprintf(`{"model":"resnet152","cluster":{"preset":"pub-a","gpus":16},"search":%q}`, search)
		resp1, b1 := postPlan(t, srv, body)
		resp2, b2 := postPlan(t, srv, body)
		if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d/%d: %s", search, resp1.StatusCode, resp2.StatusCode, b1)
		}
		if resp2.Header.Get(HeaderOutcome) != "hit" {
			t.Fatalf("%s: second request outcome %q, want hit", search, resp2.Header.Get(HeaderOutcome))
		}
		if string(b1) != string(b2) {
			t.Fatalf("%s: cached body differs from computed body", search)
		}
	}
}

// TestSearchStatsShape: exact sweeps probe everything; guided probes less
// and both return the exhaustive optimum on a zoo model.
func TestSearchStatsShape(t *testing.T) {
	svc, _ := newTestService(t, Options{Workers: 1})
	ctx := context.Background()
	plan := func(search string) *PlanResponse {
		t.Helper()
		resp, err := svc.Plan(ctx, &PlanRequest{Model: "resnet152", Search: search,
			Cluster: ClusterSpec{Preset: "pub-a", GPUs: 16}})
		if err != nil {
			t.Fatalf("search %q: %v", search, err)
		}
		return resp
	}
	exact := plan("exact")
	guided := plan("guided")
	robust := plan("robust")

	if exact.Search != "exact" || guided.Search != "guided" || robust.Search != "robust" {
		t.Fatalf("search echo: %q %q %q", exact.Search, guided.Search, robust.Search)
	}
	es, gs, rs := exact.SearchStats, guided.SearchStats, robust.SearchStats
	if es == nil || gs == nil || rs == nil {
		t.Fatal("missing search stats")
	}
	if es.Probes != es.Exhaustive || es.Saved != 0 || !es.CutoffProven {
		t.Fatalf("exact stats %+v", es)
	}
	if gs.Probes >= gs.Exhaustive || gs.Saved != gs.Exhaustive-gs.Probes {
		t.Fatalf("guided stats %+v: expected fewer probes than the %d-candidate sweep", gs, gs.Exhaustive)
	}
	if guided.K != exact.K || guided.IterTimeNs != exact.IterTimeNs {
		t.Fatalf("guided plan (k=%d, %dns) != exact plan (k=%d, %dns)",
			guided.K, guided.IterTimeNs, exact.K, exact.IterTimeNs)
	}
	if rs.RobustProbes == 0 || len(rs.Alternatives) == 0 {
		t.Fatalf("robust stats %+v: expected perturbation probes and alternatives", rs)
	}
	if rs.Alternatives[0].K != robust.K {
		t.Fatalf("robust best k=%d but first alternative k=%d", robust.K, rs.Alternatives[0].K)
	}

	// The search metrics moved.
	snap := svc.Metrics().Snapshot()
	probes, ok := snap["plansvc_search_probes_total"].(int64)
	if !ok || probes < int64(es.Probes+gs.Probes+rs.Probes) {
		t.Fatalf("search_probes_total = %v, want ≥ %d", snap["plansvc_search_probes_total"], es.Probes+gs.Probes+rs.Probes)
	}
	if saved, ok := snap["plansvc_search_probes_saved_total"].(int64); !ok || saved < int64(gs.Saved) {
		t.Fatalf("search_probes_saved_total = %v, want ≥ %d", snap["plansvc_search_probes_saved_total"], gs.Saved)
	}
}

// TestSearchUnknownFieldStillRejected: the decoder's DisallowUnknownFields
// still guards typos near the new field.
func TestSearchUnknownFieldStillRejected(t *testing.T) {
	_, srv := newTestService(t, Options{Workers: 1})
	resp, _ := postPlan(t, srv, `{"model":"resnet50","cluster":{"preset":"pub-a"},"serach":"guided"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("typo field accepted with status %d", resp.StatusCode)
	}
}

// TestWhatIfPropagatesSearch: the what-if path plans both sides under the
// requested strategy.
func TestWhatIfPropagatesSearch(t *testing.T) {
	_, srv := newTestService(t, Options{Workers: 1})
	hr, body := postWhatIf(t, srv, `{"model":"resnet50","search":"exact","cluster":{"preset":"pub-a","gpus":8},"scale_op_kind":{"dW":0.5}}`)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", hr.StatusCode, body)
	}
	var resp WhatIfResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Base.Search != "exact" || resp.WhatIf.Search != "exact" {
		t.Fatalf("what-if search echo: base %q whatif %q", resp.Base.Search, resp.WhatIf.Search)
	}
	if resp.Base.SearchStats == nil || resp.WhatIf.SearchStats == nil {
		t.Fatal("what-if missing search stats")
	}
}
