// Package cache provides a bounded LRU result cache with singleflight
// collapse: concurrent lookups of the same key share one computation instead
// of racing to compute it N times. The planning service fronts every plan
// computation with one of these (keyed by request fingerprint).
//
// Values must be immutable once returned — every hit and every collapsed
// waiter receives the same V.
package cache

import (
	"container/list"
	"context"
	"sync"
)

// Outcome classifies how a Do call obtained its value.
type Outcome int

const (
	// Hit means the value was already cached.
	Hit Outcome = iota
	// Computed means this caller ran the compute function.
	Computed
	// Collapsed means another in-flight caller computed the value and this
	// caller waited for it.
	Collapsed
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Computed:
		return "computed"
	case Collapsed:
		return "collapsed"
	default:
		return "unknown"
	}
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Collapsed int64
	Evictions int64
	Len       int
}

// Cache is a bounded LRU map with singleflight collapse. The zero value is
// not usable; construct with New.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[K]*list.Element
	order    *list.List // front = most recently used
	inflight map[K]*call[V]

	hits, misses, collapsed, evictions int64
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// call is one in-flight computation; waiters block on done.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns a cache holding at most capacity entries (capacity ≤ 0 disables
// storage but keeps singleflight collapse).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{
		capacity: capacity,
		entries:  make(map[K]*list.Element),
		order:    list.New(),
		inflight: make(map[K]*call[V]),
	}
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		return el.Value.(*lruEntry[K, V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Add inserts key → val, evicting the least recently used entry on overflow.
func (c *Cache[K, V]) Add(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.add(key, val)
}

func (c *Cache[K, V]) add(key K, val V) {
	if c.capacity <= 0 {
		return
	}
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruEntry[K, V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&lruEntry[K, V]{key, val})
	if c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry[K, V]).key)
		c.evictions++
	}
}

// Do returns the value for key, computing it with fn on a miss. Concurrent
// Do calls for the same key collapse: exactly one caller runs fn, the rest
// wait for its result (or their context). Errors are propagated to every
// waiter and never cached, so a later Do retries.
//
// ctx bounds only this caller's wait; the computation itself is owned by the
// caller that started it and is never cancelled by a waiter's context.
func (c *Cache[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (V, error, Outcome) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		v := el.Value.(*lruEntry[K, V]).val
		c.mu.Unlock()
		return v, nil, Hit
	}
	if cl, ok := c.inflight[key]; ok {
		c.collapsed++
		c.mu.Unlock()
		var zero V
		select {
		case <-cl.done:
			return cl.val, cl.err, Collapsed
		case <-ctx.Done():
			return zero, ctx.Err(), Collapsed
		}
	}
	c.misses++
	cl := &call[V]{done: make(chan struct{})}
	c.inflight[key] = cl
	c.mu.Unlock()

	cl.val, cl.err = fn()

	c.mu.Lock()
	delete(c.inflight, key)
	if cl.err == nil {
		c.add(key, cl.val)
	}
	c.mu.Unlock()
	close(cl.done)
	return cl.val, cl.err, Computed
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats returns a snapshot of the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Collapsed: c.collapsed,
		Evictions: c.evictions,
		Len:       c.order.Len(),
	}
}
