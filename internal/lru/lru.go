// Package lru is the repository's one memo: a bounded, string-keyed,
// least-recently-used cache whose only fill path is a single-flight build.
// The engine's artifact cache, the plan cache, the dist worker's frame store,
// the dist coordinator's per-worker shipped-frame ledger and the estimator
// set's per-model memo are all instances of it.
package lru

import (
	"container/list"
	"context"
	"sync"
)

// Cache holds at most max values, evicting the least recently used past the
// bound. All methods are safe for concurrent use.
//
// A build must not wait, directly or through other goroutines, on its own
// key: with every goroutine of a bounded pool waiting on a key, the builder
// would have none left to wait on. So a build calls Do on the cache it is
// filling only for keys whose builds never wait on its own (the engine's
// Prepared build looks up its view and blocks, whose builds call no Do);
// otherwise callers issue their Do calls one after another.
type Cache[V any] struct {
	mu       sync.Mutex
	entries  map[string]*list.Element // of *entry[V]
	order    *list.List               // front = most recently used
	inflight map[string]chan struct{} // key -> closed when its build ends
	max      int                      // 0 = unbounded
	onEvict  func(key string, v V)

	hits, misses, evictions uint64
}

type entry[V any] struct {
	key string
	val V
}

// New returns an empty cache holding at most max values; max <= 0 means
// unbounded. onEvict, when non-nil, is called once per eviction with the
// evicted key and value, outside the cache lock.
func New[V any](max int, onEvict func(key string, v V)) *Cache[V] {
	if max < 0 {
		max = 0
	}
	return &Cache[V]{
		entries:  make(map[string]*list.Element),
		order:    list.New(),
		inflight: make(map[string]chan struct{}),
		max:      max,
		onEvict:  onEvict,
	}
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	// MaxEntries is the configured bound (0 = unbounded).
	MaxEntries int `json:"max_entries"`
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:       c.hits,
		Misses:     c.misses,
		Evictions:  c.evictions,
		Entries:    len(c.entries),
		MaxEntries: c.max,
	}
}

// Len returns the current number of cached values.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Keys returns the cached keys, least recently used first.
func (c *Cache[V]) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.entries))
	for el := c.order.Back(); el != nil; el = el.Prev() {
		keys = append(keys, el.Value.(*entry[V]).key)
	}
	return keys
}

// lookupLocked returns key's value, promoting it to most recently used and
// counting the hit.
func (c *Cache[V]) lookupLocked(key string) (v V, ok bool) {
	el, ok := c.entries[key]
	if !ok {
		return v, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Get returns key's value if it is cached, counting a hit or a miss; it
// never waits for a build in flight.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.lookupLocked(key)
	if !ok {
		c.misses++
	}
	return v, ok
}

// Peek returns key's value if it is cached, and never waits for a build in
// flight. Unlike Get it counts neither a hit nor a miss and leaves the
// recency order alone: it is a probe made on behalf of another key (the
// engine's lookup of an artifact's ancestor version), not a lookup of its own.
func (c *Cache[V]) Peek(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// Forget drops key's value, if cached, so the next Do rebuilds it. It is an
// invalidation by the caller, not an eviction: no counter moves and onEvict
// is not called. A build in flight for key is left alone and its value is
// cached when it ends.
func (c *Cache[V]) Forget(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.Remove(el)
		delete(c.entries, key)
	}
}

// Do returns key's value, building and caching it on a miss. Builds are
// single-flight per key: of concurrent callers missing the same key, one
// counts the miss and runs build while the rest wait for its value and count
// hits (hit reports which happened). A build that returns an error or panics
// caches nothing and releases the waiters, the next of which becomes the
// builder. A waiter whose ctx ends returns ctx.Err() while the build carries
// on for the others.
func (c *Cache[V]) Do(ctx context.Context, key string, build func() (V, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	for {
		if v, ok := c.lookupLocked(key); ok {
			c.mu.Unlock()
			return v, true, nil
		}
		done, busy := c.inflight[key]
		if !busy {
			break
		}
		c.mu.Unlock()
		select {
		case <-done:
		case <-ctx.Done():
			return v, false, ctx.Err()
		}
		c.mu.Lock()
	}
	c.misses++
	done := make(chan struct{})
	c.inflight[key] = done
	c.mu.Unlock()

	built := false
	defer func() { // also on a panicking build, so waiters cannot hang
		var evicted []*entry[V]
		c.mu.Lock()
		delete(c.inflight, key)
		if built {
			c.entries[key] = c.order.PushFront(&entry[V]{key: key, val: v})
			for c.max > 0 && len(c.entries) > c.max {
				e := c.order.Remove(c.order.Back()).(*entry[V])
				delete(c.entries, e.key)
				c.evictions++
				evicted = append(evicted, e)
			}
		}
		c.mu.Unlock()
		close(done)
		if c.onEvict != nil {
			for _, e := range evicted {
				c.onEvict(e.key, e.val)
			}
		}
	}()
	v, err = build()
	built = err == nil
	return v, false, err
}
