package serve

import (
	"container/list"
	"sync"
)

// resultCache is the Server's LRU over computed values: shaped answers
// and state envelopes, under disjoint keys. Values are immutable once
// cached, so a hit hands back the shared pointer. The whole cache is
// invalidated when the store grows, because a windowed answer may gain
// events when a partition seals into its window. That is costly under
// live ingest: BENCH_10_LOAD.json measures a 1 s seal cadence cutting
// single-node throughput from 2,044 to 294 req/s. Invalidating only
// the entries whose partition footprint a refresh touched is ROADMAP
// item 4.
type resultCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recent
	items map[string]*list.Element
	// gen increments on every clear; a put computed against an older
	// generation is dropped, so a slow query finishing after a store
	// refresh can never pin its pre-refresh answer into the cache.
	gen uint64

	hits, misses, evictions uint64
}

type cacheEntry struct {
	key string
	val any
}

func newResultCache(max int) *resultCache {
	if max <= 0 {
		max = 256
	}
	return &resultCache{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

func (c *resultCache) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// generation returns the current clear-generation; pass it to put.
func (c *resultCache) generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// put caches val unless the cache was cleared after gen was read.
func (c *resultCache) put(key string, val any, gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
		c.evictions++
	}
}

func (c *resultCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element)
	c.gen++
}

// CacheStats is the cache's observability snapshot.
type CacheStats struct {
	Entries   int
	Capacity  int
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.ll.Len(),
		Capacity:  c.max,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

// flightGroup deduplicates concurrent identical queries: the first
// caller computes, everyone else arriving before it finishes blocks on
// the same call and shares its answer — so a thundering herd on one
// uncached window costs one scan, not N.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// do runs fn under key, returning the shared value and whether this
// caller piggybacked on another's computation.
func (g *flightGroup) do(key string, fn func() (any, error)) (val any, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.val, true, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, false, c.err
}
