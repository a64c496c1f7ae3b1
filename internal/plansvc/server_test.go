package plansvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"oooback/internal/models"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newTestService(t *testing.T, opts Options) (*Service, *httptest.Server) {
	t.Helper()
	if opts.Logger == nil {
		opts.Logger = quietLogger()
	}
	svc := New(opts)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return svc, srv
}

func postPlan(t *testing.T, srv *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader(body))
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

func TestHealthz(t *testing.T) {
	_, srv := newTestService(t, Options{})
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var h struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers < 1 {
		t.Fatalf("healthz = %+v", h)
	}
}

func TestModelsListsZoo(t *testing.T) {
	_, srv := newTestService(t, Options{})
	resp, err := http.Get(srv.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Models []ZooModelInfo `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range out.Models {
		names[m.Name] = true
		if m.Layers < 1 || m.ParamBytes <= 0 {
			t.Fatalf("degenerate zoo entry %+v", m)
		}
	}
	for _, want := range models.ZooNames() {
		if !names[want] {
			t.Fatalf("models endpoint missing %q", want)
		}
	}
}

// TestPlanEveryZooModel is the acceptance check: /v1/plan answers for every
// model in the zoo.
func TestPlanEveryZooModel(t *testing.T) {
	_, srv := newTestService(t, Options{Workers: 2})
	for _, name := range models.ZooNames() {
		body := fmt.Sprintf(`{"model":%q,"cluster":{"preset":"pub-a","gpus":8}}`, name)
		resp, b := postPlan(t, srv, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, b)
		}
		var pr PlanResponse
		if err := json.Unmarshal(b, &pr); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pr.IterTimeNs <= 0 || len(pr.Schedule) == 0 {
			t.Fatalf("%s: degenerate plan %+v", name, pr)
		}
		if pr.Speedup < 1.0 {
			t.Fatalf("%s: speedup %v < 1 vs conventional", name, pr.Speedup)
		}
	}
}

// TestWarmCacheHitDoesNoPlanningWork asserts, via the metrics counters, that
// a warm hit performs zero planning work.
func TestWarmCacheHitDoesNoPlanningWork(t *testing.T) {
	svc, srv := newTestService(t, Options{})
	body := `{"model":"resnet50","cluster":{"preset":"pub-a","gpus":16}}`

	resp1, b1 := postPlan(t, srv, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first: %d %s", resp1.StatusCode, b1)
	}
	if got := resp1.Header.Get(HeaderOutcome); got != "computed" {
		t.Fatalf("first outcome = %q", got)
	}
	if n := svc.met.plansComputed.Value(); n != 1 {
		t.Fatalf("plans computed after first request = %d", n)
	}

	resp2, b2 := postPlan(t, srv, body)
	if got := resp2.Header.Get(HeaderOutcome); got != "hit" {
		t.Fatalf("second outcome = %q", got)
	}
	if n := svc.met.plansComputed.Value(); n != 1 {
		t.Fatalf("warm hit recomputed: plans computed = %d", n)
	}
	if svc.met.cacheHits.Value() != 1 {
		t.Fatalf("cache hits = %d", svc.met.cacheHits.Value())
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("hit body differs from computed body:\n%s\nvs\n%s", b1, b2)
	}
}

func TestPlanValidationErrors(t *testing.T) {
	_, srv := newTestService(t, Options{})
	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"malformed json", `{"model":`, http.StatusBadRequest, CodeInvalidRequest},
		{"unknown field", `{"modle":"resnet50"}`, http.StatusBadRequest, CodeInvalidRequest},
		{"trailing data", `{"model":"resnet50"} trailing`, http.StatusBadRequest, CodeInvalidRequest},
		{"no model", `{}`, http.StatusBadRequest, CodeInvalidRequest},
		{"unknown model", `{"model":"vgg16"}`, http.StatusBadRequest, CodeUnknownModel},
		{"bad gpus", `{"model":"resnet50","cluster":{"preset":"priv-a","gpus":99}}`, http.StatusBadRequest, CodeInvalidRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, b := postPlan(t, srv, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, tc.status, b)
			}
			var env struct {
				Error *APIError `json:"error"`
			}
			if err := json.Unmarshal(b, &env); err != nil || env.Error == nil {
				t.Fatalf("no error envelope: %s", b)
			}
			if env.Error.Code != tc.code {
				t.Fatalf("code = %q, want %q", env.Error.Code, tc.code)
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, srv := newTestService(t, Options{})
	resp, err := http.Get(srv.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/plan status = %d", resp.StatusCode)
	}
}

func TestUnknownRouteTypedError(t *testing.T) {
	_, srv := newTestService(t, Options{})
	resp, err := http.Get(srv.URL + "/v2/plan")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	b, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(b), CodeNotFound) {
		t.Fatalf("body lacks typed code: %s", b)
	}
}

// TestOverloadSheds429 deterministically fills the worker and the admission
// queue, then asserts the next request is shed with 429 + Retry-After rather
// than queued unboundedly.
func TestOverloadSheds429(t *testing.T) {
	svc, srv := newTestService(t, Options{Workers: 1, QueueDepth: 1})
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	svc.planFn = func(sp *planSpec) (*PlanResponse, error) {
		entered <- struct{}{}
		<-release
		return &PlanResponse{Fingerprint: sp.fingerprint(), Mode: sp.Mode, Schedule: []string{}}, nil
	}
	defer close(release)

	req := func(i int) string {
		return fmt.Sprintf(`{"model":"resnet50","cluster":{"preset":"pub-a","gpus":%d}}`, 2+i)
	}
	type result struct {
		status     int
		retryAfter string
		body       []byte
	}
	results := make(chan result, 3)
	do := func(i int) {
		resp, b := postPlan(t, srv, req(i))
		results <- result{resp.StatusCode, resp.Header.Get("Retry-After"), b}
	}

	go do(0) // occupies the single worker
	<-entered
	go do(1) // sits in the admission queue
	waitQueued(t, svc, 1)
	resp3, b3 := postPlan(t, srv, req(2)) // must shed immediately
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request status = %d: %s", resp3.StatusCode, b3)
	}
	if resp3.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var env struct {
		Error *APIError `json:"error"`
	}
	if err := json.Unmarshal(b3, &env); err != nil || env.Error == nil || env.Error.Code != CodeOverloaded {
		t.Fatalf("shed envelope: %s", b3)
	}
	if svc.met.shed.Value() < 1 {
		t.Fatal("shed counter not incremented")
	}
}

// waitQueued blocks until the admission queue holds n jobs.
func waitQueued(t *testing.T, svc *Service, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(svc.queue) < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached depth %d", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeadlineExceeded asserts a request with a short timeout_ms fails with
// the typed deadline envelope while the planner is stuck.
func TestDeadlineExceeded(t *testing.T) {
	svc, srv := newTestService(t, Options{Workers: 1})
	release := make(chan struct{})
	svc.planFn = func(sp *planSpec) (*PlanResponse, error) {
		<-release
		return &PlanResponse{Fingerprint: sp.fingerprint(), Mode: sp.Mode, Schedule: []string{}}, nil
	}
	defer close(release)

	resp, b := postPlan(t, srv, `{"model":"resnet50","timeout_ms":50,"cluster":{"preset":"pub-a","gpus":4}}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d: %s", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), CodeDeadlineExceeded) {
		t.Fatalf("body lacks deadline code: %s", b)
	}
	if svc.met.deadline.Value() != 1 {
		t.Fatalf("deadline counter = %d", svc.met.deadline.Value())
	}
}

// TestConcurrentIdenticalCollapse fires N identical and M distinct requests
// concurrently and asserts (a) identical ones collapsed to one planner
// execution, (b) every response is byte-identical to a serial run on a fresh
// service. Run under -race (the CI recipe does).
func TestConcurrentIdenticalCollapse(t *testing.T) {
	const identical = 16
	distinct := []string{
		`{"model":"resnet50","cluster":{"preset":"pub-a","gpus":4}}`,
		`{"model":"densenet121","cluster":{"preset":"pub-a","gpus":4}}`,
		`{"model":"bert12","cluster":{"preset":"priv-b","gpus":8}}`,
	}
	same := `{"model":"resnet101","cluster":{"preset":"pub-a","gpus":16}}`

	svc, srv := newTestService(t, Options{Workers: 4})
	var wg sync.WaitGroup
	sameBodies := make([][]byte, identical)
	distinctBodies := make([][]byte, len(distinct))
	for i := 0; i < identical; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := postPlan(t, srv, same)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("identical %d: status %d: %s", i, resp.StatusCode, b)
			}
			sameBodies[i] = b
		}(i)
	}
	for i, body := range distinct {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			resp, b := postPlan(t, srv, body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("distinct %d: status %d: %s", i, resp.StatusCode, b)
			}
			distinctBodies[i] = b
		}(i, body)
	}
	wg.Wait()

	// However the requests interleaved (collapse or cache hit), the identical
	// ones must have cost exactly one planner execution each fingerprint.
	want := int64(1 + len(distinct))
	if n := svc.met.plansComputed.Value(); n != want {
		t.Fatalf("plans computed = %d, want %d (identical requests did not collapse)", n, want)
	}
	for i := 1; i < identical; i++ {
		if !bytes.Equal(sameBodies[0], sameBodies[i]) {
			t.Fatalf("identical request %d returned a different body", i)
		}
	}

	// Byte-identical to a serial run on a fresh service.
	_, serialSrv := newTestService(t, Options{Workers: 1})
	resp, serialSame := postPlan(t, serialSrv, same)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("serial: %d", resp.StatusCode)
	}
	if !bytes.Equal(serialSame, sameBodies[0]) {
		t.Fatalf("concurrent body differs from serial body:\n%s\nvs\n%s", sameBodies[0], serialSame)
	}
	for i, body := range distinct {
		_, serialB := postPlan(t, serialSrv, body)
		if !bytes.Equal(serialB, distinctBodies[i]) {
			t.Fatalf("distinct %d: concurrent body differs from serial", i)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, srv := newTestService(t, Options{})
	postPlan(t, srv, `{"model":"resnet50","cluster":{"preset":"pub-a","gpus":4}}`)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"plansvc_requests_total",
		"plansvc_plans_computed_total 1",
		"plansvc_plan_latency_seconds_count 1",
		"plansvc_cache_entries 1",
	} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, b)
		}
	}
}

func TestDebugVars(t *testing.T) {
	_, srv := newTestService(t, Options{})
	postPlan(t, srv, `{"model":"resnet50","cluster":{"preset":"pub-a","gpus":4}}`)
	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	svcVars, ok := vars["plansvc"].(map[string]any)
	if !ok {
		t.Fatalf("no plansvc section: %v", vars)
	}
	if svcVars["plansvc_plans_computed_total"] != float64(1) {
		t.Fatalf("plans_computed = %v", svcVars["plansvc_plans_computed_total"])
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	svc := New(Options{Logger: quietLogger()})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/plan", "application/json",
		strings.NewReader(`{"model":"resnet50","cluster":{"preset":"pub-a","gpus":4}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	svc.Close()
	svc.Close() // idempotent

	resp, err = http.Post(srv.URL+"/v1/plan", "application/json",
		strings.NewReader(`{"model":"resnet50","cluster":{"preset":"pub-a","gpus":8}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-close status = %d: %s", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), CodeShuttingDown) {
		t.Fatalf("post-close body: %s", b)
	}
}

func TestInlineModelSpecPlan(t *testing.T) {
	m := models.MobileNetV3Large(models.V100Profile(), 1.0, 32, models.ImageNet)
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	svc, srv := newTestService(t, Options{})
	body := fmt.Sprintf(`{"model_spec":%s,"cluster":{"preset":"priv-a","gpus":8}}`, buf.String())
	resp, b := postPlan(t, srv, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, b)
	}
	var pr PlanResponse
	if err := json.Unmarshal(b, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Model.Name != m.Name || pr.IterTimeNs <= 0 {
		t.Fatalf("inline plan: %+v", pr.Model)
	}
	if n := len(zooSnapshot(svc)); n != 0 {
		t.Fatalf("%d models memoised after an inline plan; only zoo models are", n)
	}
}

// TestInlineModelSpecByteSizesBounded: an inline spec whose byte sizes would
// overflow a trace sum (ffnn16 at 2^61 bytes per tensor), or that carries a
// negative δW workspace, is a 400 on model_spec under every objective —
// before the bound in models.Validate it drove the replay into a
// non-positive arena and failed with a 500.
func TestInlineModelSpecByteSizesBounded(t *testing.T) {
	_, srv := newTestService(t, Options{})
	for name, edit := range map[string]func(*models.Layer){
		"overflowing sums":   func(l *models.Layer) { l.ActBytes, l.OutBytes = 1<<61, 1<<61 },
		"negative workspace": func(l *models.Layer) { l.WorkBytes = -1 },
	} {
		m := models.FFNN(models.V100Profile(), 16, 4096, 1024)
		for i := range m.Layers {
			edit(&m.Layers[i])
		}
		var spec bytes.Buffer
		if err := m.WriteJSON(&spec); err != nil {
			t.Fatal(err)
		}
		for _, objective := range []string{"time", "memory", "pareto"} {
			body := fmt.Sprintf(`{"model_spec":%s,"cluster":{"preset":"pub-a","gpus":4},"objective":%q,"max_memory_bytes":%d}`,
				spec.String(), objective, int64(1)<<40)
			resp, b := postPlan(t, srv, body)
			var envelope struct {
				Error *APIError `json:"error"`
			}
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(b, &envelope) != nil || envelope.Error == nil ||
				envelope.Error.Field != "model_spec" {
				t.Fatalf("%s, objective %s: status %d, want 400 on model_spec: %s", name, objective, resp.StatusCode, b)
			}
		}
	}
}
