package shardsvc

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"oooback/internal/plansvc"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// smallMix keeps tier tests fast: two cheap models, two GPU counts.
func smallMix() plansvc.LoadSpec {
	return plansvc.LoadSpec{
		Models:    []string{"ffnn16", "resnet50"},
		GPUCounts: []int{4, 8},
	}
}

// postPlan posts body to url/v1/plan and returns (status, headers, respBody).
func postPlan(t *testing.T, url string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	return post(t, url, "/v1/plan", body)
}

// ownerAndPeer resolves a request body's ring owner among urls and one
// non-owner, using the same placement the tier uses.
func ownerAndPeer(t *testing.T, tier *Tier, body []byte) (owner, peer, fp string) {
	t.Helper()
	var req plansvc.PlanRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	fp, err := tier.Service(0).Fingerprint(&req)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := NewRing(tier.URLs(), 0)
	if err != nil {
		t.Fatal(err)
	}
	owner = ring.Owner(fp)
	for _, u := range tier.URLs() {
		if u != owner {
			peer = u
			break
		}
	}
	return owner, peer, fp
}

// The routing ladder: the owner serves locally; a non-owner proxies to the
// owner and peer-fills; the second non-owned request is a peer-cache hit.
// Bodies are byte-identical at every step.
func TestTierRoutingAndPeerFill(t *testing.T) {
	tier, err := StartTier(TierOptions{Shards: 3, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()

	body := smallMix().RequestBody(0)
	owner, peer, fp := ownerAndPeer(t, tier, body)

	status, h, ownerBody := postPlan(t, owner, body)
	if status != http.StatusOK {
		t.Fatalf("owner status = %d, body %s", status, ownerBody)
	}
	if got := h.Get(HeaderRoute); got != RouteLocalOwner {
		t.Fatalf("owner route = %q, want %q", got, RouteLocalOwner)
	}
	if got := h.Get(plansvc.HeaderOutcome); got != plansvc.OutcomeComputed {
		t.Fatalf("owner outcome = %q, want computed", got)
	}
	if got := h.Get(HeaderOwner); got != owner {
		t.Fatalf("owner header = %q, want %q", got, owner)
	}

	status, h, proxyBody := postPlan(t, peer, body)
	if status != http.StatusOK {
		t.Fatalf("proxy status = %d", status)
	}
	if got := h.Get(HeaderRoute); got != RouteProxy {
		t.Fatalf("first non-owned route = %q, want %q", got, RouteProxy)
	}
	if got := h.Get(plansvc.HeaderOutcome); got != plansvc.OutcomeHit {
		t.Fatalf("proxied outcome = %q, want hit (owner cached it)", got)
	}
	if !bytes.Equal(proxyBody, ownerBody) {
		t.Fatal("proxied body differs from the owner's body")
	}

	status, h, cachedBody := postPlan(t, peer, body)
	if status != http.StatusOK {
		t.Fatalf("peer-cache status = %d", status)
	}
	if got := h.Get(HeaderRoute); got != RoutePeerCache {
		t.Fatalf("second non-owned route = %q, want %q", got, RoutePeerCache)
	}
	if got := h.Get(plansvc.HeaderFingerprint); got != fp {
		t.Fatalf("peer-cache fingerprint = %q, want %q", got, fp)
	}
	if !bytes.Equal(cachedBody, ownerBody) {
		t.Fatal("peer-cached body differs from the owner's body")
	}
}

// A forwarded request is always served locally — no second hop, no loop.
func TestTierForwardedServedLocally(t *testing.T) {
	tier, err := StartTier(TierOptions{Shards: 3, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()

	body := smallMix().RequestBody(1)
	_, peer, _ := ownerAndPeer(t, tier, body)

	req, err := http.NewRequest(http.MethodPost, peer+"/v1/plan", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderForwarded, "test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderRoute); got != RouteForwarded {
		t.Fatalf("route = %q, want %q", got, RouteForwarded)
	}
}

// Invalid requests bypass ring routing and get the local service's canonical
// error envelope.
func TestTierInvalidRequestServedLocally(t *testing.T) {
	tier, err := StartTier(TierOptions{Shards: 2, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()

	status, h, body := postPlan(t, tier.URLs()[0], []byte(`{"model":"alexnet"}`))
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, body %s", status, body)
	}
	if got := h.Get(HeaderRoute); got != RouteLocal {
		t.Fatalf("route = %q, want %q", got, RouteLocal)
	}
	var env struct {
		Error *plansvc.APIError `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
		t.Fatalf("not the canonical error envelope: %s", body)
	}
}

// post sends body to url+path and returns (status, headers, respBody).
func post(t *testing.T, url, path string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s%s: %v", url, path, err)
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, rb
}

// proxiedTotal sums shardsvc_proxied_total over the tier's /metrics pages.
func proxiedTotal(t *testing.T, tier *Tier) (total int) {
	t.Helper()
	for _, u := range tier.URLs() {
		resp, err := http.Get(u + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		page, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		_, rest, ok := bytes.Cut(page, []byte("\nshardsvc_proxied_total "))
		if !ok {
			t.Fatalf("%s/metrics has no shardsvc_proxied_total", u)
		}
		n, err := strconv.Atoi(string(rest[:bytes.IndexByte(rest, '\n')]))
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	return total
}

// The tier is transparent: whatever a bare service answers to a body — plan,
// typed error, fingerprint, bytes — every node of a tier answers too, on
// every route the ring sends it down, and a request the service rejects is
// rejected where it arrived instead of being placed on the ring.
func TestTierTransparent(t *testing.T) {
	tier, err := StartTier(TierOptions{Shards: 3, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	bare := plansvc.New(plansvc.Options{Logger: quietLogger()})
	defer bare.Close()
	bareSrv := httptest.NewServer(bare.Handler())
	defer bareSrv.Close()

	const zoo = `{"model":"ffnn16","cluster":{"preset":"pub-a","gpus":4}`
	const ok, bad = http.StatusOK, http.StatusBadRequest
	bodies := []struct {
		name, body   string
		plan, whatif int // status on /v1/plan and on /v1/whatif
	}{
		{"zoo plan", zoo + `}`, ok, ok},
		{"trailing newline", zoo + "}\n", ok, ok},
		{"what-if", zoo + `,"scale_op_kind":{"dW":0.5},"scale_bandwidth":2}`, bad, ok},
		{"objective time", zoo + `,"objective":"time"}`, ok, ok},
		{"objective memory", zoo + `,"objective":"memory","max_memory_bytes":1099511627776}`, ok, ok},
		{"objective pareto", zoo + `,"objective":"pareto"}`, ok, ok},
		{"unknown field", zoo + `,"colour":"red"}`, bad, bad},
		{"trailing data", zoo + `} trailing`, bad, bad},
		{"second value", zoo + `}{}`, bad, bad},
		{"wrong type", `{"model":7}`, bad, bad},
		{"unknown model", `{"model":"alexnet"}`, bad, bad},
		{"not json", `plan me`, bad, bad},
		{"empty body", ``, bad, bad},
		// A valid request padded past the service's body limit.
		{"9 MiB", zoo + `}` + strings.Repeat(" ", 9<<20), bad, bad},
	}
	errorCode := func(body []byte) string {
		var env struct {
			Error plansvc.APIError `json:"error"`
		}
		json.Unmarshal(body, &env) // a plan body has no error member: code ""
		return env.Error.Code
	}
	for _, tc := range bodies {
		for path, want := range map[string]int{"/v1/plan": tc.plan, "/v1/whatif": tc.whatif} {
			wantStatus, wantH, wantBody := post(t, bareSrv.URL, path, []byte(tc.body))
			if wantStatus != want {
				t.Errorf("%s %s: bare service status %d, want %d: %.200s", tc.name, path, wantStatus, want, wantBody)
				continue
			}
			proxiedBefore := proxiedTotal(t, tier)
			// Twice round the tier: the second pass takes the hit and
			// peer-cache routes the first pass filled.
			for pass := 0; pass < 2; pass++ {
				for _, u := range tier.URLs() {
					status, h, body := post(t, u, path, []byte(tc.body))
					route := h.Get(HeaderRoute)
					if status != wantStatus || errorCode(body) != errorCode(wantBody) {
						t.Errorf("%s %s via %s (%s): status %d code %q, bare service %d %q",
							tc.name, path, u, route, status, errorCode(body), wantStatus, errorCode(wantBody))
						continue
					}
					if got, want := h.Get(plansvc.HeaderFingerprint), wantH.Get(plansvc.HeaderFingerprint); got != want {
						t.Errorf("%s %s via %s (%s): fingerprint %q, bare service %q", tc.name, path, u, route, got, want)
					}
					if !bytes.Equal(body, wantBody) {
						t.Errorf("%s %s via %s (%s): body differs from the bare service's", tc.name, path, u, route)
					}
					if valid := status == http.StatusOK; valid == (route == RouteLocal) {
						t.Errorf("%s %s via %s: status %d took route %q; %q is for invalid requests and only them",
							tc.name, path, u, status, route, RouteLocal)
					}
				}
			}
			if n := proxiedTotal(t, tier) - proxiedBefore; wantStatus != http.StatusOK && n != 0 {
				t.Errorf("%s %s: invalid request proxied %d times", tc.name, path, n)
			}
		}
	}
}

// Restarting a tier over the same warm-cache dirs serves previously planned
// requests as disk hits — outcome "warm", zero planner search probes anywhere.
func TestTierWarmRestart(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}

	tier1, err := StartTier(TierOptions{Shards: 3, WarmDirs: dirs, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	mix := smallMix()
	bodies := [][]byte{mix.RequestBody(0), mix.RequestBody(1)}
	want := make([][]byte, len(bodies))
	// Offer every body to every node: the owner computes and persists, the
	// non-owners peer-fill — and peer fills persist too, so after this loop
	// every node's warm dir holds every plan.
	for bi, body := range bodies {
		for _, u := range tier1.URLs() {
			status, _, rb := postPlan(t, u, body)
			if status != http.StatusOK {
				t.Fatalf("warmup status = %d: %s", status, rb)
			}
			want[bi] = rb
		}
	}
	tier1.Close()

	// Restart. The new tier has fresh LRUs and (with new ports) a different
	// ring placement — but every warm dir has every plan, so the first
	// duplicate request is a disk hit wherever it lands.
	tier2, err := StartTier(TierOptions{Shards: 3, WarmDirs: dirs, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer tier2.Close()
	for bi, body := range bodies {
		status, h, rb := postPlan(t, tier2.URLs()[bi%3], body)
		if status != http.StatusOK {
			t.Fatalf("restart status = %d: %s", status, rb)
		}
		if got := h.Get(plansvc.HeaderOutcome); got != plansvc.OutcomeWarm {
			t.Fatalf("restart outcome = %q, want %q (route %q)", got, plansvc.OutcomeWarm, h.Get(HeaderRoute))
		}
		if !bytes.Equal(rb, want[bi]) {
			t.Fatalf("restarted body differs from the original plan for request %d", bi)
		}
	}
	for i := 0; i < 3; i++ {
		snap := tier2.Service(i).Metrics().Snapshot()
		if probes, _ := snap["plansvc_search_probes_total"].(int64); probes != 0 {
			t.Fatalf("shard %d ran %d search probes; warm restart must not replan", i, probes)
		}
	}
}

// Chaos: kill 1 of 3 shards mid-load. Client-side failover plus shard-side
// suspect re-route keep the success rate ≥ 99%, and the survivors drain
// gracefully afterwards.
func TestChaosKillShard(t *testing.T) {
	tier, err := StartTier(TierOptions{Shards: 3, Logger: quietLogger(),
		SuspectCooldown: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()

	mix := smallMix()
	spec := plansvc.LoadSpec{
		BaseURLs:   tier.URLs(),
		Clients:    4,
		Requests:   120,
		Models:     mix.Models,
		GPUCounts:  mix.GPUCounts,
		ChaosAfter: 48,
		ChaosKill:  func() { tier.Kill(1) },
	}
	rep, err := plansvc.RunLoad(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("success=%.4f retries=%d transport_errors=%d routes=%v outcomes=%v",
		rep.SuccessRate, rep.Retries, rep.TransportErrors, rep.Routes, rep.Outcomes)
	if rep.SuccessRate < 0.99 {
		t.Fatalf("success rate %.4f after killing 1 of 3 shards, want ≥ 0.99", rep.SuccessRate)
	}
	if rep.Retries == 0 {
		t.Fatal("expected client failovers after the kill; the chaos hook did not bite")
	}
	// Graceful drain of the survivors must not hang or panic.
	tier.Close()
}
