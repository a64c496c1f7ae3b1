package plansvc

import (
	"crypto/sha256"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"oooback/internal/models"
)

// zooSnapshot hashes every model the service's planner has memoised.
func zooSnapshot(svc *Service) map[zooKey][sha256.Size]byte {
	p := svc.planner
	p.zooMu.Lock()
	defer p.zooMu.Unlock()
	out := make(map[zooKey][sha256.Size]byte, len(p.zoo))
	for key, tab := range p.zoo {
		m := tab.Model()
		out[key] = sha256.Sum256([]byte(fmt.Sprintf("%p %+v", m, *m)))
	}
	return out
}

// TestZooModelsImmutable: a service builds each (zoo name, GPU profile)
// model once and every planning path only reads it. Each memoised model is
// hashed — address included — after a first pass has built it and again
// after concurrent clients ran all three modes, every objective, /v1/whatif
// and /v1/plan:batch over it, on a plain service and on one re-timing the zoo
// through a cost table; under -race a write to a shared model also fails as
// a data race.
func TestZooModelsImmutable(t *testing.T) {
	presets := []string{"pub-a", "priv-a"} // v100, titanxp
	for _, opts := range []Options{{}, {CostTable: loadFittedTable(t)}} {
		opts.QueueDepth = 1 << 12
		svc, srv := newTestService(t, opts)
		post := func(path, body string) {
			resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			// 400: a model too big for the GPU, or deeper pipelines than layers.
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusBadRequest {
				t.Errorf("POST %s %s: status %d", path, body, resp.StatusCode)
			}
		}

		for _, name := range models.ZooNames() {
			for _, preset := range presets {
				post("/v1/plan", fmt.Sprintf(`{"model":%q,"cluster":{"preset":%q,"gpus":4}}`, name, preset))
			}
		}
		before := zooSnapshot(svc)
		if want := len(models.ZooNames()) * len(presets); len(before) != want {
			t.Fatalf("%d models memoised after planning every zoo name on %d GPU profiles, want %d", len(before), len(presets), want)
		}
		for key, sum := range before {
			sp := &planSpec{ModelName: key.name, GPU: key.gpu, retime: key.retime}
			fresh := sp.resolveModel()
			memo := svc.planner.model(&planSpec{ModelName: key.name, GPU: key.gpu, retime: key.retime})
			if fmt.Sprintf("%+v", *memo) != fmt.Sprintf("%+v", *fresh) {
				t.Fatalf("memoised %s/%s differs from a fresh build", key.name, key.gpu)
			}
			if sum != sha256.Sum256([]byte(fmt.Sprintf("%p %+v", memo, *memo))) {
				t.Fatalf("planner.model(%s/%s) is not the memoised model", key.name, key.gpu)
			}
		}

		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				names := models.ZooNames()
				for i := range names {
					name := names[(i+3*c)%len(names)]
					cluster := fmt.Sprintf(`{"preset":%q,"gpus":%d}`, presets[c%2], 2+c)
					plan := func(extra string) string {
						return fmt.Sprintf(`{"model":%q,"cluster":%s%s}`, name, cluster, extra)
					}
					post("/v1/plan", plan(`,"search":"robust"`))
					post("/v1/plan", plan(`,"objective":"pareto"`))
					post("/v1/plan", plan(`,"objective":"memory","max_memory_bytes":1099511627776`))
					post("/v1/plan", plan(`,"mode":"pipeline","micro_batches":4`))
					post("/v1/plan", plan(`,"mode":"singlegpu"`))
					post("/v1/whatif", plan(`,"scale_op_kind":{"dW":0.5},"scale_bandwidth":2`))
					post("/v1/plan:batch", `{"requests":[`+plan(`,"method":"p3"`)+`,`+plan(`,"method":"wfbp"`)+`]}`)
				}
			}(c)
		}
		wg.Wait()

		after := zooSnapshot(svc)
		if len(after) != len(before) {
			t.Fatalf("%d models memoised after the mixed run, %d before", len(after), len(before))
		}
		for key, sum := range before {
			if after[key] != sum {
				t.Errorf("memoised %s/%s was rebuilt or written to during planning", key.name, key.gpu)
			}
		}
	}
}
