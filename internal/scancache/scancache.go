// Package scancache is the byte-budgeted LRU under both caches of the query
// path: the storage layer's decoded-column cache on the worker and the
// result cache (internal/rescache) on the coordinator. It is deliberately
// generic — keys are strings the owner derives (brick generation + epoch,
// or table + query identity), values are opaque, and the owner decides the
// byte cost of each entry — and may raise it: an owner whose entries grow
// in place (the decoded-column cache adds column slots to a brick's entry)
// re-prices one by putting it again under the same key, and drops one it
// knows is stale with Delete or DeleteFunc, which are not evictions.
//
// Eviction is recency-ordered but heat-aware: when over budget the cache
// examines a bounded window of the least-recently-used entries and evicts
// the coldest one first, so a briefly-idle hot brick outlives a cold brick
// touched a moment ago (the PR-5 hotness ladder deciding residency).
// Owners pass heat 0 when they have no hotness signal, which degrades to
// plain LRU.
//
// A nil *Cache is a valid, always-missing cache, so callers can wire a
// zero byte budget as "caching off" without branching.
package scancache

import (
	"container/list"
	"sync"

	"cubrick/internal/metrics"
)

// evictWindow bounds how many LRU-tail entries an eviction examines when
// picking the coldest victim; beyond it, recency wins over heat.
const evictWindow = 32

// Cache is a byte-budgeted, heat-aware LRU. Safe for concurrent use.
type Cache struct {
	mu    sync.Mutex
	max   int64
	bytes int64
	lru   *list.List // front = most recently used
	byKey map[string]*list.Element

	hits, misses, evictions int64

	// Metric handles resolved once by SetMetrics; nil until then.
	hitC, missC, evictC *metrics.Counter
	bytesG, entriesG    *metrics.Gauge
}

type entry struct {
	key   string
	value any
	bytes int64
	heat  float64
}

// New returns a cache bounded to maxBytes. A non-positive budget returns
// nil — the always-missing cache — so flag wiring needs no special case.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	return &Cache{max: maxBytes, lru: list.New(), byKey: make(map[string]*list.Element)}
}

// SetMetrics routes the cache's hit/miss/evict counters and bytes/entries
// gauges into reg under prefix (e.g. "cache.decoded" → "cache.decoded.hit").
func (c *Cache) SetMetrics(reg *metrics.Registry, prefix string) {
	if c == nil || reg == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hitC = reg.Counter(prefix + ".hit")
	c.missC = reg.Counter(prefix + ".miss")
	c.evictC = reg.Counter(prefix + ".evict")
	c.bytesG = reg.Gauge(prefix + ".bytes")
	c.entriesG = reg.Gauge(prefix + ".entries")
}

// Get returns the value under key, refreshing its recency and heat, and
// counts the lookup as a hit or a miss. The heat argument is the caller's
// current hotness signal for the entry's underlying data (0 when unknown);
// the entry keeps the freshest value so eviction ranks entries by how hot
// their data is now, not at fill time.
func (c *Cache) Get(key string, heat float64) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.peekLocked(key, heat)
	c.countLocked(ok)
	return v, ok
}

// Peek is Get without the hit/miss accounting, for owners whose entries
// can be present yet not hold what the lookup needs: they inspect the
// value and settle the outcome themselves with Count.
func (c *Cache) Peek(key string, heat float64) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peekLocked(key, heat)
}

// Count records the outcome of one Peek-based lookup.
func (c *Cache) Count(hit bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.countLocked(hit)
}

func (c *Cache) peekLocked(key string, heat float64) (any, bool) {
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	e := el.Value.(*entry)
	e.heat = heat
	return e.value, true
}

func (c *Cache) countLocked(hit bool) {
	if hit {
		c.hits++
		if c.hitC != nil {
			c.hitC.Inc()
		}
		return
	}
	c.misses++
	if c.missC != nil {
		c.missC.Inc()
	}
}

// Put inserts (or replaces) key with a value costing bytes, evicting
// coldest-of-the-oldest entries until the budget holds. Entries larger
// than the whole budget are rejected rather than wiping the cache — and
// dropped if already resident, so an entry that outgrew the budget is not
// kept at its old price.
func (c *Cache) Put(key string, v any, bytes int64, heat float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	switch {
	case bytes > c.max:
		if !ok {
			return
		}
		c.evictLocked(el)
	case ok:
		e := el.Value.(*entry)
		c.bytes += bytes - e.bytes
		e.value, e.bytes, e.heat = v, bytes, heat
		c.lru.MoveToFront(el)
	default:
		c.byKey[key] = c.lru.PushFront(&entry{key: key, value: v, bytes: bytes, heat: heat})
		c.bytes += bytes
	}
	for c.bytes > c.max {
		c.evictColdest()
	}
	c.publishSizeLocked()
}

// evictColdest removes the coldest entry among the evictWindow least
// recently used ones. Caller holds c.mu and guarantees the cache is
// non-empty (bytes > max implies at least one entry).
func (c *Cache) evictColdest() {
	victim := c.lru.Back()
	coldest := victim.Value.(*entry).heat
	el := victim
	for i := 1; i < evictWindow && el != nil; i++ {
		if el = el.Prev(); el == nil {
			break
		}
		if e := el.Value.(*entry); e.heat < coldest {
			victim, coldest = el, e.heat
		}
	}
	c.evictLocked(victim)
}

// evictLocked drops one entry and counts it as an eviction.
func (c *Cache) evictLocked(el *list.Element) {
	c.removeLocked(el)
	c.evictions++
	if c.evictC != nil {
		c.evictC.Inc()
	}
}

func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.byKey, e.key)
	c.bytes -= e.bytes
}

// Delete drops key's entry and reports whether there was one.
func (c *Cache) Delete(key string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if ok {
		c.removeLocked(el)
		c.publishSizeLocked()
	}
	return ok
}

// DeleteFunc drops every entry whose value drop reports true for and
// returns how many. drop runs on a snapshot, outside the lock, so a value
// put under a dropped key meanwhile goes too: a lost fill, never a stale hit.
func (c *Cache) DeleteFunc(drop func(v any) bool) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	snap := make([]entry, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		snap = append(snap, *el.Value.(*entry))
	}
	c.mu.Unlock()
	n := 0
	for _, e := range snap {
		if drop(e.value) && c.Delete(e.key) {
			n++
		}
	}
	return n
}

func (c *Cache) publishSizeLocked() {
	if c.bytesG != nil {
		c.bytesG.Set(float64(c.bytes))
		c.entriesG.Set(float64(c.lru.Len()))
	}
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits, Misses, Evictions int64
	Bytes                   int64
	Entries                 int
}

// Stats returns the cache's lifetime counters and current size. A nil
// cache reports zeros.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Bytes: c.bytes, Entries: c.lru.Len(),
	}
}
