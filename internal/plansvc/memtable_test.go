package plansvc

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"oooback/internal/models"
	"oooback/internal/plansearch"
)

// memTableRequests are data-parallel plans of one zoo model on one GPU
// profile, so one planner zoo entry and its one footprint table serve them
// all: two clusters × two sync methods × the time, pareto and memory
// objectives, the time and memory plans under a budget between the model's
// tightest and loosest footprints.
func memTableRequests(t *testing.T) []*PlanRequest {
	t.Helper()
	tab := zooTable(newPlanner(1), mustNormalize(t, &PlanRequest{Model: "resnet50"}))
	lo, hi := int64(math.MaxInt64), int64(0)
	for k := 0; k <= len(tab.Model().Layers); k++ {
		peak := tab.Footprint(k).FragPeakBytes
		lo, hi = min(lo, peak), max(hi, peak)
	}
	budget := lo + (hi-lo)/2
	var reqs []*PlanRequest
	for _, cluster := range []ClusterSpec{
		{Preset: "pub-a", GPUs: 16},
		{Preset: "priv-a", GPUs: 4, GPU: "v100"},
	} {
		for _, method := range []string{"ooo-byteps", "ooo-horovod"} {
			base := PlanRequest{Model: "resnet50", Cluster: cluster, Method: method}
			timed, pareto, memory := base, base, base
			timed.MaxMemoryBytes = budget
			pareto.Objective = ObjectivePareto
			memory.Objective, memory.MaxMemoryBytes = ObjectiveMemory, budget
			reqs = append(reqs, &timed, &pareto, &memory)
		}
	}
	return reqs
}

// zooTable returns p's footprint table of the spec's zoo model.
func zooTable(p *planner, sp *planSpec) *plansearch.MemTable {
	p.model(sp)
	return sp.memTable()
}

// planBody plans req on p and renders the body the service would cache.
func planBody(p *planner, req *PlanRequest) ([]byte, error) {
	sp, err := normalize(req)
	if err != nil {
		return nil, err
	}
	resp, err := p.plan(sp)
	if err != nil {
		return nil, err
	}
	return marshalBody(resp)
}

// TestWarmTableBodiesMatchFresh: once a planner's table for a zoo model is
// filled, every body it plans from the table is byte-identical to the body
// a fresh planner replays its own footprints for, under two clusters, two
// sync methods and all three objectives; the footprint a body reports is
// that of the schedule it serves; and the planner kept one entry.
func TestWarmTableBodiesMatchFresh(t *testing.T) {
	reqs := memTableRequests(t)
	warm := newPlanner(2)
	for _, req := range reqs {
		if _, err := planBody(warm, req); err != nil {
			t.Fatal(err)
		}
	}
	for _, req := range reqs {
		sp := mustNormalize(t, req)
		resp, err := warm.plan(sp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := marshalBody(resp)
		if err != nil {
			t.Fatal(err)
		}
		want, err := planBody(newPlanner(2), req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%+v: warm-table body differs from a fresh planner's\n got: %s\nwant: %s", *req, got, want)
		}
		mem := plansearch.MemFootprint(sp.model, parseSchedule(t, resp.Schedule))
		if resp.Memory.PeakMemoryBytes != mem.FragPeakBytes || resp.Memory.LogicalPeakBytes != mem.LogicalPeakBytes {
			t.Fatalf("%+v: body reports %+v, its schedule replays to %+v", *req, *resp.Memory, mem)
		}
	}
	if len(warm.zoo) != 1 {
		t.Fatalf("%d zoo entries after planning one model on one GPU profile, want 1", len(warm.zoo))
	}
}

// TestMemTableConcurrentPlans runs time, pareto and memory plans of one zoo
// entry concurrently on one planner, from an empty table, and checks every
// body against a fresh planner's. Under -race a slot written while another
// plan reads it fails as a data race.
func TestMemTableConcurrentPlans(t *testing.T) {
	reqs := memTableRequests(t)
	want := make([][]byte, len(reqs))
	for i, req := range reqs {
		var err error
		if want[i], err = planBody(newPlanner(1), req); err != nil {
			t.Fatal(err)
		}
	}
	p := newPlanner(2)
	const clients = 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range reqs {
				i := (j + c*len(reqs)/clients) % len(reqs)
				got, err := planBody(p, reqs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want[i]) {
					t.Errorf("client %d, %+v: body differs from a fresh planner's", c, *reqs[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestZooFragPeakMonotoneInK answers a question budgeted search depends on:
// on every zoo model and every GPU profile the service plans for, the
// fragmented peak of reverse first-k — the BFC-replayed footprint, read from
// the planner's table — is nondecreasing in k. The depths whose footprint
// fits a budget are then a prefix, and a search can bisect for its end. As
// with the logical peak (core's TestZooPeakMonotoneInK), this is a fact
// about the zoo, not a theorem.
func TestZooFragPeakMonotoneInK(t *testing.T) {
	p := newPlanner(1)
	for gpu := range profiles {
		for _, name := range models.ZooNames() {
			tab := zooTable(p, &planSpec{ModelName: name, GPU: gpu})
			prev := tab.Footprint(0).FragPeakBytes
			for k := 1; k < len(tab.Model().Layers); k++ {
				peak := tab.Footprint(k).FragPeakBytes
				if peak < prev {
					t.Errorf("%s on %s: fragmented peak falls from %d at k=%d to %d at k=%d", name, gpu, prev, k-1, peak, k)
				}
				prev = peak
			}
		}
	}
	if want := len(profiles) * len(models.ZooNames()); len(p.zoo) != want {
		t.Fatalf("%d tables read, want %d", len(p.zoo), want)
	}
}
