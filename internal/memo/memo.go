// Package memo is a bounded, single-flight cache: concurrent requests
// for one key share a single computation, and successful results are
// kept in an LRU bounded by entry count. The experiment layer's run memo
// and the HTTP server's response cache are both instances of it.
package memo

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// Source says how a Do call obtained its value.
type Source uint8

const (
	// Hit is a value served from the LRU.
	Hit Source = iota
	// Joined is a value waited for on a computation another call started.
	Joined
	// Computed is a call that started the computation.
	Computed
)

// Result reports what one Do call did, for callers that publish metrics.
type Result struct {
	Source Source
	// Reporter is true for exactly one of the calls that received a
	// freshly computed value: the one that publishes Evicted and Entries,
	// the outcome of storing that value. Evictions are thus counted once,
	// even when the call that started the computation has already left.
	Reporter bool
	Evicted  int
	Entries  int
}

// Stats is a snapshot of a cache's traffic.
type Stats struct {
	// Hits counts values served without computing: from the LRU or from
	// a computation another call started.
	Hits int64
	// Misses counts computations started.
	Misses int64
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64
	// Entries is the number of stored values; Capacity bounds it.
	Entries, Capacity int
}

// Cache is a concurrency-safe single-flight cache with an LRU bound. A
// computation runs on a flight context derived from the cache's base
// context, not from any caller's, so one caller giving up does not fail
// the others; the flight is cancelled only when every caller waiting for
// it has gone. In-flight keys are never evicted, errors are never stored.
type Cache[K comparable, V any] struct {
	base     context.Context
	capacity int

	mu        sync.Mutex
	lru       *list.List // stored *entry values, front = most recently used
	entries   map[K]*list.Element
	flights   map[K]*flight[V]
	evictions int64

	hits, misses atomic.Int64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// flight is one running computation and the callers waiting for it.
type flight[V any] struct {
	done   chan struct{}
	cancel context.CancelFunc
	refs   int // callers waiting, guarded by Cache.mu

	// Set before done is closed.
	val              V
	err              error
	evicted, entries int
	reported         atomic.Bool // the store has been handed to one caller
}

// New returns a cache whose computations run on contexts derived from
// base, keeping at most capacity values. A capacity of 0 (or less) keeps
// nothing but still coalesces concurrent requests.
func New[K comparable, V any](base context.Context, capacity int) *Cache[K, V] {
	return &Cache[K, V]{
		base:     base,
		capacity: max(capacity, 0),
		lru:      list.New(),
		entries:  make(map[K]*list.Element),
		flights:  make(map[K]*flight[V]),
	}
}

// Do returns the value for key: from the LRU (moving it to the front),
// from a computation already running for key, or by starting compute on
// a new flight context. It returns early with ctx's error when ctx is
// done first; the computation carries on while any other caller waits.
func (c *Cache[K, V]) Do(ctx context.Context, key K, compute func(context.Context) (V, error)) (V, Result, error) {
	var zero V
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e)
		c.mu.Unlock()
		c.hits.Add(1)
		return e.Value.(*entry[K, V]).val, Result{Source: Hit}, nil
	}
	res := Result{Source: Joined}
	f, ok := c.flights[key]
	if ok {
		f.refs++
	} else {
		res.Source = Computed
		fctx, cancel := context.WithCancel(c.base)
		f = &flight[V]{done: make(chan struct{}), cancel: cancel, refs: 1}
		c.flights[key] = f
		c.misses.Add(1)
		go c.run(fctx, key, f, compute)
	}
	c.mu.Unlock()

	select {
	case <-f.done:
	case <-ctx.Done():
		c.mu.Lock()
		f.refs--
		abandoned := f.refs == 0 && c.flights[key] == f
		if abandoned {
			// Unlink before cancelling, so a later caller starts afresh
			// instead of joining a computation that is being torn down.
			delete(c.flights, key)
		}
		c.mu.Unlock()
		if abandoned {
			f.cancel()
		}
		return zero, res, ctx.Err()
	}
	if f.err != nil {
		return zero, res, f.err
	}
	if res.Source == Joined {
		c.hits.Add(1)
	}
	if f.reported.CompareAndSwap(false, true) {
		res.Reporter, res.Evicted, res.Entries = true, f.evicted, f.entries
	}
	return f.val, res, nil
}

// run computes one flight and ends it: the flight leaves the table and a
// successful value enters the LRU under one lock, so a later Do sees
// either the flight or the stored value, never neither. An abandoned
// flight (every caller left) was unlinked already and stores nothing.
func (c *Cache[K, V]) run(ctx context.Context, key K, f *flight[V], compute func(context.Context) (V, error)) {
	defer f.cancel()
	v, err := compute(ctx)
	c.mu.Lock()
	live := c.flights[key] == f
	if live {
		delete(c.flights, key)
	}
	if live && err == nil && c.capacity > 0 {
		c.entries[key] = c.lru.PushFront(&entry[K, V]{key: key, val: v})
		for c.lru.Len() > c.capacity {
			back := c.lru.Back()
			c.lru.Remove(back)
			delete(c.entries, back.Value.(*entry[K, V]).key)
			f.evicted++
		}
		c.evictions += int64(f.evicted)
	}
	f.val, f.err, f.entries = v, err, c.lru.Len()
	c.mu.Unlock()
	close(f.done)
}

// Waiters reports how many callers are waiting on key's running
// computation (0 when none runs).
func (c *Cache[K, V]) Waiters(key K) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[key]; ok {
		return f.refs
	}
	return 0
}

// Stats returns the cache's counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits.Load(), Misses: c.misses.Load(),
		Evictions: c.evictions, Entries: c.lru.Len(), Capacity: c.capacity,
	}
}
