package shardsvc

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"time"

	"oooback/internal/plansvc"
	"oooback/internal/plansvc/warmcache"
)

// TierOptions configures an in-process shard tier (StartTier) — the harness
// behind `oooplan loadgen -shards`, the chaos tests, and the benchmarks.
type TierOptions struct {
	// Shards is the node count (default 3).
	Shards int
	// WarmDirs, when non-empty, gives each node i a persistent warm-start
	// cache at WarmDirs[i mod len]. Point a restarted tier at the same dirs to
	// serve previous plans as disk hits.
	WarmDirs []string
	// Workers is each node's planner worker-pool size (0 = plansvc default).
	Workers int
	// SuspectCooldown overrides each shard's failure-detector cooldown.
	SuspectCooldown time.Duration
	// Logger for all nodes (default: slog.Default).
	Logger *slog.Logger
}

// Tier is a running set of shard nodes on loopback listeners.
type Tier struct {
	nodes []*tierNode
}

type tierNode struct {
	url    string
	srv    *http.Server
	svc    *plansvc.Service
	warm   *warmcache.Cache
	killed bool
}

// StartTier boots an N-node tier: all listeners are bound first (so every
// node knows the full membership URL set), then each node gets its own
// plansvc.Service (+ optional warm cache) wrapped in a Shard router.
func StartTier(opts TierOptions) (*Tier, error) {
	if opts.Shards <= 0 {
		opts.Shards = 3
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	listeners := make([]net.Listener, 0, opts.Shards)
	urls := make([]string, 0, opts.Shards)
	fail := func(err error) (*Tier, error) {
		for _, ln := range listeners {
			ln.Close()
		}
		return nil, err
	}
	for i := 0; i < opts.Shards; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("shardsvc: tier listen: %w", err))
		}
		listeners = append(listeners, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}

	t := &Tier{}
	for i := 0; i < opts.Shards; i++ {
		var warm *warmcache.Cache
		if len(opts.WarmDirs) > 0 {
			var err error
			warm, err = warmcache.Open(opts.WarmDirs[i%len(opts.WarmDirs)])
			if err != nil {
				t.Close()
				return fail(fmt.Errorf("shardsvc: tier warm cache: %w", err))
			}
		}
		svc := plansvc.New(plansvc.Options{
			Logger:    opts.Logger.With("shard", i),
			Workers:   opts.Workers,
			WarmCache: warm,
		})
		sh, err := New(Options{
			Self:            urls[i],
			Peers:           urls,
			Service:         svc,
			SuspectCooldown: opts.SuspectCooldown,
			Logger:          opts.Logger.With("shard", i),
		})
		if err != nil {
			svc.Close()
			if warm != nil {
				warm.Close()
			}
			t.Close()
			return fail(err)
		}
		node := &tierNode{
			url:  urls[i],
			srv:  &http.Server{Handler: sh.Handler()},
			svc:  svc,
			warm: warm,
		}
		t.nodes = append(t.nodes, node)
		go node.srv.Serve(listeners[i])
	}
	return t, nil
}

// URLs returns the node base URLs in shard order.
func (t *Tier) URLs() []string {
	urls := make([]string, len(t.nodes))
	for i, n := range t.nodes {
		urls[i] = n.url
	}
	return urls
}

// Service returns node i's underlying plansvc.Service (for metric assertions).
func (t *Tier) Service(i int) *plansvc.Service { return t.nodes[i].svc }

// Kill abruptly stops node i: in-flight connections are dropped, the planner
// pool and warm cache close. Peers and clients see transport errors — the
// chaos case, not a drain.
func (t *Tier) Kill(i int) {
	n := t.nodes[i]
	if n.killed {
		return
	}
	n.killed = true
	n.srv.Close()
	n.svc.Close()
	if n.warm != nil {
		n.warm.Close()
	}
}

// Close drains every surviving node gracefully: HTTP shutdown (bounded),
// then planner pool and warm cache. Killed nodes are skipped.
func (t *Tier) Close() {
	for _, n := range t.nodes {
		if n == nil || n.killed {
			continue
		}
		n.killed = true
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		n.srv.Shutdown(ctx)
		cancel()
		n.svc.Close()
		if n.warm != nil {
			n.warm.Close()
		}
	}
}
