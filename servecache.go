package thermosc

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"time"
)

// lruCache is a mutex-guarded LRU map from canonical keys to immutable
// values (cached plan bytes, shared platforms). Values must never be
// mutated after Put — hits hand out the same reference.
type lruCache[V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRUCache[V any](capacity int) *lruCache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache[V]{cap: capacity, ll: list.New(), items: make(map[string]*list.Element, capacity)}
}

func (c *lruCache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruEntry[V]).val, true
	}
	var zero V
	return zero, false
}

func (c *lruCache[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*lruEntry[V]).key)
	}
}

func (c *lruCache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// GetOrCreate returns the cached value for key, building and inserting
// it on a miss. Concurrent creators for the same key may both build;
// the first Put wins and is what subsequent Gets observe — acceptable
// for idempotent constructions (platforms), not for the plan cache,
// which goes through the singleflight group instead.
func (c *lruCache[V]) GetOrCreate(key string, build func() (V, error)) (V, error) {
	if v, ok := c.Get(key); ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		var zero V
		return zero, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok { // lost the build race: keep the incumbent
		c.ll.MoveToFront(el)
		return el.Value.(*lruEntry[V]).val, nil
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: v})
	for c.ll.Len() > c.cap {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*lruEntry[V]).key)
	}
	return v, nil
}

// cachedPlan is the plan cache's (and flight group's) value: the
// serialized plan plus the serving metadata the handler needs without
// re-decoding the bytes. Complete plans are immortal cache entries
// (bit-reproducible, so never wrong); degraded plans are cached too —
// serving a verified best-so-far beats re-timing-out — but are always
// treated as stale, served with stale:true while a background refresh
// tries to replace them with the complete solve.
type cachedPlan struct {
	bytes    []byte
	degraded bool
	reason   string
	born     time.Time
}

// errFlightPanic is what joiners of a flight receive when the leader's
// fn panicked: the leader re-raises the panic into its own request's
// recovery middleware, and the joiners get a plain 500 error.
var errFlightPanic = errors.New("thermosc: solve failed: the flight leader panicked")

// flight is one in-progress computation other requests can join.
type flight struct {
	done chan struct{}
	val  cachedPlan
	err  error
}

// flightGroup deduplicates concurrent work by key (a minimal
// singleflight: the stdlib has none and the container bakes in no
// third-party modules). The first caller for a key becomes the leader
// and runs fn; callers arriving before the leader finishes join the
// flight and share its outcome. A joiner whose own context expires
// stops waiting and returns its ctx error WITHOUT canceling the flight —
// the leader's context governs the computation itself.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flight)}
}

// Do returns fn's result for key, running fn at most once per key at a
// time. shared reports whether this caller joined an existing flight.
//
// Do is panic-safe: if fn panics, the flight is still unregistered and
// its done channel closed (joiners get errFlightPanic instead of
// hanging forever), and the panic propagates to the leader's caller —
// the per-request recovery middleware in Server.ServeHTTP.
func (g *flightGroup) Do(ctx context.Context, key string, fn func() (cachedPlan, error)) (val cachedPlan, shared bool, err error) {
	g.mu.Lock()
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-f.done:
			return f.val, true, f.err
		case <-ctx.Done():
			return cachedPlan{}, true, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()

	finished := false
	defer func() {
		if !finished { // fn panicked mid-flight
			f.val, f.err = cachedPlan{}, errFlightPanic
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = fn()
	finished = true
	return f.val, false, f.err
}
