package plansvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"oooback/internal/models"
)

// LoadSpec configures a deterministic closed-loop load against a running
// service or shard tier. The request *sequence* is a pure function of the
// spec — request i always carries the same body — so runs are reproducible
// and cache behaviour is controlled: a mix with M distinct bodies warms the
// cache after M requests and then exercises the hit path.
type LoadSpec struct {
	// BaseURL targets a single service ("http://127.0.0.1:8080").
	BaseURL string
	// BaseURLs targets a shard tier: request i goes to BaseURLs[i mod N], and
	// a transport failure fails over to the next URL (counted in
	// LoadReport.Retries) — the client-side re-route a load balancer would
	// perform when a shard dies. Exactly one of BaseURL and BaseURLs is used;
	// BaseURLs wins when both are set.
	BaseURLs []string
	// Clients is the number of concurrent closed-loop clients (default 4).
	Clients int
	// Requests is the total request count (default 256).
	Requests int
	// Models is the request mix, cycled per request (default: the full zoo).
	Models []string
	// GPUCounts is rotated once per full model cycle (default {4, 8, 16}).
	GPUCounts []int
	// Preset is the cluster preset (default "pub-a").
	Preset string
	// Mode is the planning mode (default ModeDataPar).
	Mode string
	// Objective is the planning objective carried by every request
	// ("" = server default "time"; "memory" requires MaxMemoryBytes).
	Objective string
	// MaxMemoryBytes is the per-request memory budget (0 = unconstrained).
	MaxMemoryBytes int64
	// TimeoutMillis is the per-request planning deadline (0 = server limit).
	TimeoutMillis int64
	// Client overrides the HTTP client (default: pooled, 2 min timeout).
	Client *http.Client

	// ChaosAfter, when > 0, invokes ChaosKill once after that many requests
	// have completed — kill a shard mid-load and measure the tier riding
	// through it.
	ChaosAfter int
	// ChaosKill is the chaos action (required when ChaosAfter > 0).
	ChaosKill func()
}

func (ls LoadSpec) withDefaults() LoadSpec {
	if ls.Clients <= 0 {
		ls.Clients = 4
	}
	if ls.Requests <= 0 {
		ls.Requests = 256
	}
	if len(ls.Models) == 0 {
		ls.Models = models.ZooNames()
	}
	if len(ls.GPUCounts) == 0 {
		ls.GPUCounts = []int{4, 8, 16}
	}
	if ls.Preset == "" {
		ls.Preset = "pub-a"
	}
	if ls.Mode == "" {
		ls.Mode = ModeDataPar
	}
	if ls.Client == nil {
		ls.Client = &http.Client{Timeout: 2 * time.Minute}
	}
	return ls
}

// targets returns the URL rotation of the spec.
func (ls LoadSpec) targets() []string {
	if len(ls.BaseURLs) > 0 {
		return ls.BaseURLs
	}
	if ls.BaseURL != "" {
		return []string{ls.BaseURL}
	}
	return nil
}

// RequestBody returns the canonical JSON body of request i in the sequence.
func (ls LoadSpec) RequestBody(i int) []byte {
	ls = ls.withDefaults()
	model := ls.Models[i%len(ls.Models)]
	gpus := ls.GPUCounts[(i/len(ls.Models))%len(ls.GPUCounts)]
	req := PlanRequest{
		Model:          model,
		Mode:           ls.Mode,
		Objective:      ls.Objective,
		MaxMemoryBytes: ls.MaxMemoryBytes,
		TimeoutMillis:  ls.TimeoutMillis,
		Cluster:        ClusterSpec{Preset: ls.Preset, GPUs: gpus},
	}
	b, err := json.Marshal(&req)
	if err != nil {
		panic(fmt.Errorf("plansvc: loadgen marshal: %w", err))
	}
	return b
}

// LoadReport aggregates one load run.
type LoadReport struct {
	Requests  int     `json:"requests"`
	Clients   int     `json:"clients"`
	Shards    int     `json:"shards"`
	DurationS float64 `json:"duration_s"`
	// OpsPerSec is completed requests (any status) per wall second — the
	// service-level closed-loop throughput.
	OpsPerSec float64 `json:"ops_per_sec"`
	// StatusCounts histograms HTTP status codes ("200", "429", ...).
	StatusCounts map[string]int `json:"status_counts"`
	// Outcomes histograms the X-Plan-Outcome header
	// (hit/computed/collapsed/warm).
	Outcomes map[string]int `json:"outcomes"`
	// Routes histograms the X-Shard-Route header when a shard tier served the
	// load (local-owner/proxy/peer-cache/reroute-local/...).
	Routes map[string]int `json:"routes,omitempty"`
	// TransportErrors counts requests that failed below HTTP on every target
	// they were offered to.
	TransportErrors int `json:"transport_errors"`
	// Retries counts failovers to another shard URL after a transport error.
	Retries int `json:"retries"`
	// SuccessRate is 200 responses over total requests.
	SuccessRate float64 `json:"success_rate"`
	// ColdPlanRate is the fraction of successful responses that ran the
	// planner (outcome "computed") — the tier-wide cold-plan cost.
	ColdPlanRate float64 `json:"cold_plan_rate"`

	// Latency is the full latency distribution over completed requests.
	LatencyMsP50  float64 `json:"latency_ms_p50"`
	LatencyMsP90  float64 `json:"latency_ms_p90"`
	LatencyMsP95  float64 `json:"latency_ms_p95"`
	LatencyMsP99  float64 `json:"latency_ms_p99"`
	LatencyMsP999 float64 `json:"latency_ms_p999"`
	LatencyMsMax  float64 `json:"latency_ms_max"`

	// PeakMemSamples counts 200 responses whose body carried a
	// memory.peak_memory_bytes figure (data-parallel plans always do); the
	// percentiles below are over those samples. All zero when the mix never
	// produced one (e.g. pipeline mode).
	PeakMemSamples int `json:"peak_mem_samples,omitempty"`
	// PeakMemBytes* is the distribution of the planned schedules'
	// BFC-replayed fragmented peaks across the mix — the arena each planned
	// job would actually need.
	PeakMemBytesP50 int64 `json:"peak_mem_bytes_p50,omitempty"`
	PeakMemBytesP90 int64 `json:"peak_mem_bytes_p90,omitempty"`
	PeakMemBytesP99 int64 `json:"peak_mem_bytes_p99,omitempty"`
	PeakMemBytesMax int64 `json:"peak_mem_bytes_max,omitempty"`
}

// RunLoad drives the closed loop: each client owns the request indices
// congruent to its id modulo Clients and issues them back-to-back. Per-index
// result slots make the collection lock-free and the aggregation
// deterministic.
func RunLoad(spec LoadSpec) (*LoadReport, error) {
	ls := spec.withDefaults()
	urls := ls.targets()
	if len(urls) == 0 {
		return nil, fmt.Errorf("plansvc: loadgen needs a BaseURL or BaseURLs")
	}
	if ls.ChaosAfter > 0 && ls.ChaosKill == nil {
		return nil, fmt.Errorf("plansvc: ChaosAfter set without ChaosKill")
	}
	n := ls.Requests
	type slot struct {
		status  int
		outcome string
		route   string
		retries int
		peakMem int64 // memory.peak_memory_bytes of a 200 body; -1 when absent
		latency time.Duration
		err     error
	}
	slots := make([]slot, n)

	var completed atomic.Int64
	var chaosOnce sync.Once

	start := time.Now()
	done := make(chan struct{})
	for c := 0; c < ls.Clients; c++ {
		go func(c int) {
			defer func() { done <- struct{}{} }()
			for i := c; i < n; i += ls.Clients {
				body := ls.RequestBody(i)
				t0 := time.Now()
				// Offer the request to every target starting at its home
				// shard; a transport error (dead shard) fails over to the
				// next. HTTP-level errors (4xx/5xx) are final — the tier
				// answered.
				var lastErr error
				for try := 0; try < len(urls); try++ {
					target := urls[(i+try)%len(urls)]
					resp, err := ls.Client.Post(target+"/v1/plan", "application/json", bytes.NewReader(body))
					if err != nil {
						lastErr = err
						slots[i].retries++
						continue
					}
					slots[i].status = resp.StatusCode
					slots[i].outcome = resp.Header.Get(HeaderOutcome)
					slots[i].route = resp.Header.Get("X-Shard-Route")
					slots[i].peakMem = peakMemOf(resp)
					resp.Body.Close()
					lastErr = nil
					break
				}
				slots[i].latency = time.Since(t0)
				if lastErr != nil {
					slots[i].err = lastErr
					// The last offer failed too; the final increment above
					// over-counted the terminal failure as a retry.
					slots[i].retries--
				}
				if ls.ChaosAfter > 0 && completed.Add(1) == int64(ls.ChaosAfter) {
					chaosOnce.Do(ls.ChaosKill)
				}
			}
		}(c)
	}
	for c := 0; c < ls.Clients; c++ {
		<-done
	}
	wall := time.Since(start)

	rep := &LoadReport{
		Requests:     n,
		Clients:      ls.Clients,
		Shards:       len(urls),
		DurationS:    wall.Seconds(),
		StatusCounts: map[string]int{},
		Outcomes:     map[string]int{},
	}
	lats := make([]float64, 0, n)
	peaks := make([]float64, 0, n)
	for _, s := range slots {
		rep.Retries += s.retries
		if s.err != nil {
			rep.TransportErrors++
			continue
		}
		rep.StatusCounts[fmt.Sprint(s.status)]++
		if s.outcome != "" {
			rep.Outcomes[s.outcome]++
		}
		if s.route != "" {
			if rep.Routes == nil {
				rep.Routes = map[string]int{}
			}
			rep.Routes[s.route]++
		}
		if s.peakMem >= 0 {
			peaks = append(peaks, float64(s.peakMem))
		}
		lats = append(lats, float64(s.latency.Microseconds())/1000)
	}
	if wall > 0 {
		rep.OpsPerSec = float64(n-rep.TransportErrors) / wall.Seconds()
	}
	rep.SuccessRate = float64(rep.StatusCounts["200"]) / float64(n)
	if ok := rep.StatusCounts["200"]; ok > 0 {
		rep.ColdPlanRate = float64(rep.Outcomes[OutcomeComputed]) / float64(ok)
	}
	if len(lats) > 0 {
		sort.Float64s(lats)
		rep.LatencyMsP50 = percentile(lats, 0.50)
		rep.LatencyMsP90 = percentile(lats, 0.90)
		rep.LatencyMsP95 = percentile(lats, 0.95)
		rep.LatencyMsP99 = percentile(lats, 0.99)
		rep.LatencyMsP999 = percentile(lats, 0.999)
		rep.LatencyMsMax = lats[len(lats)-1]
	}
	if len(peaks) > 0 {
		sort.Float64s(peaks)
		rep.PeakMemSamples = len(peaks)
		rep.PeakMemBytesP50 = int64(percentile(peaks, 0.50))
		rep.PeakMemBytesP90 = int64(percentile(peaks, 0.90))
		rep.PeakMemBytesP99 = int64(percentile(peaks, 0.99))
		rep.PeakMemBytesMax = int64(peaks[len(peaks)-1])
	}
	return rep, nil
}

// peakMemOf extracts memory.peak_memory_bytes from a plan response body, or
// -1 when the body is not a 200 plan or carries no memory section. The body
// is always drained so the connection can be reused.
func peakMemOf(resp *http.Response) int64 {
	defer io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return -1
	}
	var pr struct {
		Memory *struct {
			PeakMemoryBytes int64 `json:"peak_memory_bytes"`
		} `json:"memory"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil || pr.Memory == nil {
		return -1
	}
	return pr.Memory.PeakMemoryBytes
}

// percentile returns the nearest-rank percentile of sorted samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
