package plansvc

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func postWhatIf(t *testing.T, srv *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/whatif", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

const whatifBody = `{
	"model": "resnet50",
	"mode": "datapar",
	"cluster": {"preset": "priv-a", "gpus": 4},
	"scale_op_kind": {"dW": 0.5},
	"scale_bandwidth": 2
}`

func TestWhatIfComputesBothPlans(t *testing.T) {
	_, srv := newTestService(t, Options{})
	resp, body := postWhatIf(t, srv, whatifBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var wr WhatIfResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	if wr.Base == nil || wr.WhatIf == nil {
		t.Fatal("missing base or what_if plan")
	}
	if wr.Base.IterTimeNs <= 0 || wr.WhatIf.IterTimeNs <= 0 {
		t.Fatalf("non-positive iteration times: base %d, whatif %d", wr.Base.IterTimeNs, wr.WhatIf.IterTimeNs)
	}
	// Halving δW cost and doubling bandwidth can only speed the iteration up.
	if wr.WhatIf.IterTimeNs >= wr.Base.IterTimeNs {
		t.Fatalf("perturbed iteration (%d ns) not faster than base (%d ns)", wr.WhatIf.IterTimeNs, wr.Base.IterTimeNs)
	}
	if wr.IterSpeedup <= 1 {
		t.Fatalf("iter_speedup = %v, want > 1", wr.IterSpeedup)
	}
	if wr.Fingerprint == "" || wr.Fingerprint == wr.Base.Fingerprint {
		t.Fatalf("what-if fingerprint %q must be set and distinct from the plan fingerprint", wr.Fingerprint)
	}
	if wr.WhatIf.Fingerprint == wr.Base.Fingerprint {
		t.Fatal("inner what_if plan shares the base plan fingerprint; the perturbation is not in the spec")
	}
	if resp.Header.Get(HeaderOutcome) != "computed" {
		t.Fatalf("outcome = %q, want computed", resp.Header.Get(HeaderOutcome))
	}
	if resp.Header.Get(HeaderFingerprint) != wr.Fingerprint {
		t.Fatalf("fingerprint header %q != body fingerprint %q", resp.Header.Get(HeaderFingerprint), wr.Fingerprint)
	}
}

func TestWhatIfCacheHitIsByteIdentical(t *testing.T) {
	svc, srv := newTestService(t, Options{})
	resp1, body1 := postWhatIf(t, srv, whatifBody)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get(HeaderOutcome); got != "computed" {
		t.Fatalf("first outcome = %q, want computed", got)
	}
	// Same perturbation, different (insignificant) spelling: identity factors
	// drop out of the fingerprint.
	reordered := `{
		"scale_bandwidth": 2,
		"scale_op_kind": {"dW": 0.5, "fwd": 1},
		"cluster": {"preset": "priv-a", "gpus": 4},
		"mode": "datapar",
		"model": "resnet50"
	}`
	resp2, body2 := postWhatIf(t, srv, reordered)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get(HeaderOutcome); got != "hit" {
		t.Fatalf("second outcome = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("cached what-if body differs from the computed one")
	}
	if hits := svc.CacheStats().Hits; hits == 0 {
		t.Fatal("cache reported no hits")
	}
}

func TestWhatIfValidation(t *testing.T) {
	_, srv := newTestService(t, Options{})
	cases := []struct {
		name, body, wantCode string
		wantStatus           int
	}{
		{"unknown kind", `{"model":"densenet121","cluster":{},"scale_op_kind":{"bogus":0.5}}`,
			CodeInvalidRequest, http.StatusBadRequest},
		{"non-model family", `{"model":"densenet121","cluster":{},"scale_op_kind":{"reduce":0.5}}`,
			CodeInvalidRequest, http.StatusBadRequest},
		{"dWFill folds to dW", `{"model":"densenet121","cluster":{},"scale_op_kind":{"dWFill":0.5}}`,
			CodeInvalidRequest, http.StatusBadRequest},
		{"factor out of range", `{"model":"densenet121","cluster":{},"scale_op_kind":{"dW":1e9}}`,
			CodeInvalidRequest, http.StatusBadRequest},
		{"bad bandwidth", `{"model":"densenet121","cluster":{},"scale_bandwidth":-2}`,
			CodeInvalidRequest, http.StatusBadRequest},
		{"unknown model", `{"model":"nope","cluster":{},"scale_op_kind":{"dW":0.5}}`,
			CodeUnknownModel, http.StatusBadRequest},
		{"unknown field", `{"model":"densenet121","cluster":{},"scale_banana":2}`,
			CodeInvalidRequest, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := postWhatIf(t, srv, c.body)
			if resp.StatusCode != c.wantStatus {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, c.wantStatus, body)
			}
			var env struct {
				Error *APIError `json:"error"`
			}
			if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
				t.Fatalf("no error envelope: %s", body)
			}
			if env.Error.Code != c.wantCode {
				t.Fatalf("code = %q, want %q", env.Error.Code, c.wantCode)
			}
		})
	}
}

func TestWhatIfMethodNotAllowed(t *testing.T) {
	_, srv := newTestService(t, Options{})
	resp, err := http.Get(srv.URL + "/v1/whatif")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Fatalf("Allow = %q", allow)
	}
}

// TestWhatIfIdentityPerturbation asserts an all-identity what-if predicts
// exactly the base plan (the degenerate question is still a valid one).
func TestWhatIfIdentityPerturbation(t *testing.T) {
	_, srv := newTestService(t, Options{})
	resp, body := postWhatIf(t, srv, `{"model":"densenet121","mode":"singlegpu","cluster":{},"scale_op_kind":{"dW":1},"scale_bandwidth":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var wr WhatIfResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	if len(wr.ScaleOpKind) != 0 || wr.ScaleBandwidth != 0 {
		t.Fatalf("identity factors survived normalization: %v / %v", wr.ScaleOpKind, wr.ScaleBandwidth)
	}
	if wr.WhatIf.IterTimeNs != wr.Base.IterTimeNs {
		t.Fatalf("identity what-if changed the iteration time: %d vs %d", wr.WhatIf.IterTimeNs, wr.Base.IterTimeNs)
	}
	if wr.IterSpeedup != 1 {
		t.Fatalf("iter_speedup = %v, want 1", wr.IterSpeedup)
	}
}

// TestWhatIfPipelineBandwidth: a pipeline-mode request with a pure
// bandwidth perturbation never gets slower.
func TestWhatIfPipelineBandwidth(t *testing.T) {
	_, srv := newTestService(t, Options{})
	resp, body := postWhatIf(t, srv, `{"model":"bert12","mode":"pipeline","cluster":{"gpus":4},"scale_bandwidth":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var wr WhatIfResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	if wr.Base == nil || wr.WhatIf == nil {
		t.Fatal("missing plans")
	}
	if wr.WhatIf.IterTimeNs > wr.Base.IterTimeNs {
		t.Fatalf("4x bandwidth slowed the pipeline: %d vs %d", wr.WhatIf.IterTimeNs, wr.Base.IterTimeNs)
	}
}
