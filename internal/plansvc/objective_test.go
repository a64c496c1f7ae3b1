package plansvc

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"testing"
	"time"

	"oooback/internal/datapar"
	"oooback/internal/models"
	"oooback/internal/plansearch"
	"oooback/internal/plansvc/warmcache"
)

// TestNormalizeObjective covers the objective/budget vocabulary: defaults,
// fingerprint stability of the time objective, and every rejection.
func TestNormalizeObjective(t *testing.T) {
	base := func() *PlanRequest {
		return &PlanRequest{Model: "resnet50", Cluster: ClusterSpec{Preset: "pub-a", GPUs: 4}}
	}

	// The default and the explicit time objective normalize identically, so
	// pre-objective fingerprints (and warm caches) stay valid.
	def := mustNormalize(t, base())
	timed := base()
	timed.Objective = " Time "
	if got := mustNormalize(t, timed); got.fingerprint() != def.fingerprint() {
		t.Fatalf("explicit time objective changed the fingerprint: %s vs %s",
			got.fingerprint(), def.fingerprint())
	}
	if def.Objective != "" {
		t.Fatalf("default objective normalized to %q, want empty", def.Objective)
	}

	mem := base()
	mem.Objective = "memory"
	mem.MaxMemoryBytes = 1 << 30
	if sp := mustNormalize(t, mem); sp.Objective != ObjectiveMemory {
		t.Fatalf("objective %q, want %q", sp.Objective, ObjectiveMemory)
	}
	par := base()
	par.Objective = "PARETO"
	if sp := mustNormalize(t, par); sp.Objective != ObjectivePareto {
		t.Fatalf("objective %q, want %q", sp.Objective, ObjectivePareto)
	}

	// Distinct objectives must have distinct fingerprints.
	if mustNormalize(t, par).fingerprint() == def.fingerprint() {
		t.Fatal("pareto objective shares the time objective's fingerprint")
	}

	rejections := []struct {
		name  string
		mut   func(*PlanRequest)
		field string
	}{
		{"unknown objective", func(r *PlanRequest) { r.Objective = "latency" }, "objective"},
		{"memory without budget", func(r *PlanRequest) { r.Objective = "memory" }, "max_memory_bytes"},
		{"memory negative budget", func(r *PlanRequest) {
			r.Objective = "memory"
			r.MaxMemoryBytes = -1
		}, "max_memory_bytes"},
		{"objective in pipeline mode", func(r *PlanRequest) {
			r.Mode = ModePipeline
			r.Objective = "pareto"
		}, "objective"},
		{"objective in singlegpu mode", func(r *PlanRequest) {
			r.Mode = ModeSingleGPU
			r.Objective = "memory"
			r.MaxMemoryBytes = 1 << 30
		}, "objective"},
	}
	for _, tc := range rejections {
		t.Run(tc.name, func(t *testing.T) {
			req := base()
			tc.mut(req)
			_, err := normalize(req)
			apiErr, ok := err.(*APIError)
			if !ok {
				t.Fatalf("error %v (%T), want *APIError", err, err)
			}
			if apiErr.Code != CodeInvalidRequest || apiErr.Field != tc.field {
				t.Fatalf("got code=%q field=%q, want %q/%q",
					apiErr.Code, apiErr.Field, CodeInvalidRequest, tc.field)
			}
		})
	}
}

// TestPlanObjectiveMemory exercises the planner end to end: a generous budget
// is honoured, the response carries the footprint, and an unmeetable budget
// is a typed client error naming max_memory_bytes.
func TestPlanObjectiveMemory(t *testing.T) {
	p := newPlanner(2)

	req := &PlanRequest{
		Model:          "resnet50",
		Cluster:        ClusterSpec{Preset: "pub-a", GPUs: 4},
		Objective:      "memory",
		MaxMemoryBytes: 1 << 40,
	}
	resp, err := p.plan(mustNormalize(t, req))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Objective != ObjectiveMemory {
		t.Fatalf("objective %q, want %q", resp.Objective, ObjectiveMemory)
	}
	if resp.Memory == nil {
		t.Fatal("memory objective response carries no memory stats")
	}
	if resp.Memory.PeakMemoryBytes <= 0 || resp.Memory.PeakMemoryBytes > req.MaxMemoryBytes {
		t.Fatalf("peak %d outside (0, budget %d]", resp.Memory.PeakMemoryBytes, req.MaxMemoryBytes)
	}
	if resp.Memory.BudgetBytes != req.MaxMemoryBytes {
		t.Fatalf("budget echo %d, want %d", resp.Memory.BudgetBytes, req.MaxMemoryBytes)
	}
	switch resp.Memory.Scheduler {
	case "reverse-first-k", "mem-list":
	default:
		t.Fatalf("unknown scheduler %q", resp.Memory.Scheduler)
	}
	if resp.Memory.FragRatio < 1 {
		t.Fatalf("frag ratio %v below 1", resp.Memory.FragRatio)
	}
	if len(resp.Schedule) == 0 || resp.IterTimeNs <= 0 {
		t.Fatalf("incomplete plan: %d schedule ops, iter %d ns", len(resp.Schedule), resp.IterTimeNs)
	}

	// A one-byte budget cannot be met by any schedule.
	tiny := *req
	tiny.MaxMemoryBytes = 1
	_, err = p.plan(mustNormalize(t, &tiny))
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Code != CodeInvalidRequest || apiErr.Field != "max_memory_bytes" {
		t.Fatalf("unmeetable budget: got %v, want invalid_request on max_memory_bytes", err)
	}
}

// TestPlanObjectivePareto checks the frontier's shape in the response: time-
// ascending, memory strictly descending, headline = first fitting point.
func TestPlanObjectivePareto(t *testing.T) {
	p := newPlanner(2)

	req := &PlanRequest{
		Model:     "bert12",
		Cluster:   ClusterSpec{Preset: "pub-a", GPUs: 4},
		Objective: "pareto",
	}
	resp, err := p.plan(mustNormalize(t, req))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Objective != ObjectivePareto {
		t.Fatalf("objective %q, want %q", resp.Objective, ObjectivePareto)
	}
	if len(resp.Pareto) == 0 {
		t.Fatal("empty pareto frontier")
	}
	for i := 1; i < len(resp.Pareto); i++ {
		a, b := resp.Pareto[i-1], resp.Pareto[i]
		if b.IterTimeNs < a.IterTimeNs {
			t.Fatalf("frontier time not ascending at %d: %d after %d", i, b.IterTimeNs, a.IterTimeNs)
		}
		if b.PeakMemoryBytes >= a.PeakMemoryBytes {
			t.Fatalf("frontier memory not strictly descending at %d: %d after %d",
				i, b.PeakMemoryBytes, a.PeakMemoryBytes)
		}
	}
	// Unconstrained: the headline is the time optimum (frontier head).
	if resp.IterTimeNs != resp.Pareto[0].IterTimeNs {
		t.Fatalf("headline %d ns, frontier head %d ns", resp.IterTimeNs, resp.Pareto[0].IterTimeNs)
	}
	for _, pt := range resp.Pareto {
		if pt.MemSched != (pt.K == -1) {
			t.Fatalf("point %+v: MemSched and K=-1 disagree", pt)
		}
	}

	// With a budget at the memory optimum, the headline must be that point.
	tail := resp.Pareto[len(resp.Pareto)-1]
	capped := *req
	capped.MaxMemoryBytes = tail.PeakMemoryBytes
	cresp, err := p.plan(mustNormalize(t, &capped))
	if err != nil {
		t.Fatal(err)
	}
	if cresp.Memory.PeakMemoryBytes > capped.MaxMemoryBytes {
		t.Fatalf("headline peak %d exceeds budget %d", cresp.Memory.PeakMemoryBytes, capped.MaxMemoryBytes)
	}
	if cresp.IterTimeNs != tail.IterTimeNs {
		t.Fatalf("capped headline %d ns, want memory optimum %d ns", cresp.IterTimeNs, tail.IterTimeNs)
	}

	// A budget under the memory optimum is a client error.
	under := *req
	under.MaxMemoryBytes = tail.PeakMemoryBytes - 1
	_, err = p.plan(mustNormalize(t, &under))
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Field != "max_memory_bytes" {
		t.Fatalf("sub-minimum budget: got %v, want invalid_request on max_memory_bytes", err)
	}
}

// TestObjectiveCachedBodies: responses are pure functions of the fingerprint —
// repeating a request byte-for-byte must return a byte-identical body for
// every objective, and the repeat must be a cache hit.
func TestObjectiveCachedBodies(t *testing.T) {
	_, srv := newTestService(t, Options{})
	bodies := []string{
		`{"model":"resnet50","cluster":{"preset":"pub-a","gpus":4}}`,
		`{"model":"resnet50","cluster":{"preset":"pub-a","gpus":4},"objective":"memory","max_memory_bytes":1099511627776}`,
		`{"model":"resnet50","cluster":{"preset":"pub-a","gpus":4},"objective":"pareto"}`,
	}
	for _, body := range bodies {
		r1, b1 := postPlan(t, srv, body)
		if r1.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, r1.StatusCode, b1)
		}
		r2, b2 := postPlan(t, srv, body)
		if r2.StatusCode != http.StatusOK {
			t.Fatalf("%s: repeat status %d", body, r2.StatusCode)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%s: repeated response bodies differ", body)
		}
		if got := r2.Header.Get(HeaderOutcome); got != OutcomeHit {
			t.Fatalf("%s: repeat outcome %q, want %q", body, got, OutcomeHit)
		}
	}
}

// TestPlanValidationObjectiveHTTP: the HTTP layer surfaces objective errors
// as 400s with the offending field in the envelope.
func TestPlanValidationObjectiveHTTP(t *testing.T) {
	_, srv := newTestService(t, Options{})
	cases := []struct {
		name  string
		body  string
		field string
	}{
		{"unknown objective", `{"model":"resnet50","cluster":{"preset":"pub-a"},"objective":"speed"}`, "objective"},
		{"memory without budget", `{"model":"resnet50","cluster":{"preset":"pub-a"},"objective":"memory"}`, "max_memory_bytes"},
		{"objective in pipeline mode", `{"model":"resnet50","cluster":{"preset":"pub-a"},"mode":"pipeline","objective":"pareto"}`, "objective"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postPlan(t, srv, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
			var envelope struct {
				Error *APIError `json:"error"`
			}
			if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error == nil {
				t.Fatalf("bad error envelope %s: %v", body, err)
			}
			if envelope.Error.Code != CodeInvalidRequest || envelope.Error.Field != tc.field {
				t.Fatalf("got code=%q field=%q, want %q/%q",
					envelope.Error.Code, envelope.Error.Field, CodeInvalidRequest, tc.field)
			}
		})
	}
}

// FuzzPlanRequestDecode fuzzes the request decode+normalize path: arbitrary
// bytes must never panic — either they fail to decode, fail validation, or
// normalize cleanly.
func FuzzPlanRequestDecode(f *testing.F) {
	f.Add([]byte(`{"model":"resnet50","cluster":{"preset":"pub-a","gpus":4}}`))
	f.Add([]byte(`{"model":"resnet50","objective":"memory","max_memory_bytes":1}`))
	f.Add([]byte(`{"objective":"pareto","mode":"pipeline"}`))
	f.Add([]byte(`{"model_spec":{"name":"x","batch":0,"layers":[]}}`))
	f.Add([]byte(`{"max_memory_bytes":-9223372036854775808}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var req PlanRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		sp, err := normalize(&req)
		if err == nil && sp == nil {
			t.Fatal("normalize returned nil spec and nil error")
		}
		if err != nil {
			if _, ok := err.(*APIError); !ok {
				t.Fatalf("normalize returned untyped error %T: %v", err, err)
			}
		}
	})
}

// TestMemoryBodyMatchesExhaustive: on every zoo model, under a FIFO, a
// priority and a preemptive method and at the tightest, mid and loosest
// budgets, a memory-objective body without its search_stats is
// byte-identical to the body of the exhaustive scan's winner — the first
// fastest fitting candidate of the full sweep — and its stats say how many
// candidates the search did not simulate.
func TestMemoryBodyMatchesExhaustive(t *testing.T) {
	p := newPlanner(2)
	saved := 0
	for _, name := range models.ZooNames() {
		tab := zooTable(p, mustNormalize(t, &PlanRequest{Model: name}))
		L := len(tab.Model().Layers)
		lo, hi := int64(math.MaxInt64), int64(0)
		for k := 0; k <= L; k++ {
			lo, hi = min(lo, tab.Footprint(k).FragPeakBytes), max(hi, tab.Footprint(k).FragPeakBytes)
		}
		for _, method := range []string{"ooo-horovod", "p3", "ooo-byteps"} {
			for _, budget := range []int64{lo, lo + (hi-lo)/2, hi} {
				sp := mustNormalize(t, &PlanRequest{Model: name, Cluster: ClusterSpec{Preset: "pub-a", GPUs: 16},
					Method: method, Objective: ObjectiveMemory, MaxMemoryBytes: budget})
				resp, err := p.plan(sp)
				if err != nil {
					t.Fatal(err)
				}
				st := resp.SearchStats
				if st.Exhaustive != L+1 || st.Saved != st.Exhaustive-st.Probes || !st.CutoffProven {
					t.Fatalf("%s %s budget %d: search_stats %+v", name, method, budget, *st)
				}
				saved += st.Saved

				prio, preemptive := dpMethods[sp.Method].Channel()
				space := plansearch.Space{
					Model:       sp.model,
					Costs:       datapar.Costs(sp.model, sp.cluster(), sp.GPUs, dpMethods[sp.Method]),
					Disciplines: []plansearch.Discipline{{Name: sp.Method, Prio: prio, Preemptive: preemptive}},
				}
				var best *plansearch.MemPoint
				for _, pt := range plansearch.ParetoSweep(space, plansearch.Config{}).Points {
					if pt.Mem.FragPeakBytes <= budget && (best == nil || pt.Makespan < best.Makespan) {
						best = &pt
					}
				}
				ref := *resp
				fillHeadline(sp, sp.model, time.Duration(resp.BaselineIterTimeNs), *best, space.MemPointSchedule(*best), &ref)
				ref.SearchStats, resp.SearchStats = nil, nil
				got, err := marshalBody(resp)
				if err != nil {
					t.Fatal(err)
				}
				want, err := marshalBody(&ref)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s %s budget %d: body differs from the exhaustive scan's\n got: %s\nwant: %s", name, method, budget, got, want)
				}
			}
		}
	}
	if saved == 0 {
		t.Fatal("no memory plan saved a probe")
	}
}

// TestWarmParentMemoryBodyServes: a memory-objective body written to the
// warm cache by a planner that simulated every candidate (probes = L+1,
// saved = 0) still loads and is served byte for byte, not replanned.
func TestWarmParentMemoryBodyServes(t *testing.T) {
	body := `{"model":"resnet50","cluster":{"preset":"pub-a","gpus":16},"objective":"memory","max_memory_bytes":4000000000}`
	_, srv := newTestService(t, Options{})
	r, b := postPlan(t, srv, body)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", r.StatusCode, b)
	}
	var resp PlanResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	resp.SearchStats.Probes, resp.SearchStats.Saved = resp.SearchStats.Exhaustive, 0
	parent, err := marshalBody(&resp)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(parent, b) {
		t.Fatal("the bound-ordered search simulated every candidate; the case tests nothing")
	}

	dir := t.TempDir()
	wc, err := warmcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wc.Put(resp.Fingerprint, parent); err != nil {
		t.Fatal(err)
	}
	wc.Close()
	if wc, err = warmcache.Open(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wc.Close() })
	svc, srv := newTestService(t, Options{WarmCache: wc})
	r, b = postPlan(t, srv, body)
	if r.StatusCode != http.StatusOK || r.Header.Get(HeaderOutcome) != OutcomeWarm {
		t.Fatalf("status %d, outcome %q, want 200 %q", r.StatusCode, r.Header.Get(HeaderOutcome), OutcomeWarm)
	}
	if !bytes.Equal(b, parent) {
		t.Fatalf("served body differs from the stored one\n got: %s\nwant: %s", b, parent)
	}
	if svc.met.plansComputed.Value() != 0 {
		t.Fatal("the stored body was replanned")
	}
}
