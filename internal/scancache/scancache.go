// Package scancache is the byte-budgeted LRU under both caches of the query
// path: the storage layer's decoded-column cache on the worker and the
// result cache (internal/rescache) on the coordinator. It is deliberately
// generic — keys are strings the owner derives (brick generation, or table
// + query identity), values are opaque, and the owner decides the byte cost
// of each entry — and may raise it: an owner whose entries grow in place
// (the decoded-column cache adds column slots to a brick's entry) re-prices
// one by putting it again under the same key, and drops one it knows is
// stale with Delete or DeleteFunc, which are not evictions.
//
// An owner may also hold its values outside the cache: the decoded-column
// cache keeps each brick's entry on the brick, so a hit never reaches the
// cache, and the cache is only the budget. Such values implement Resident:
// eviction ranks them by their live heat, keeps one the owner used since
// it last looked (moving it to the front, as a Get would have: a second
// chance), and tells each one when it stops holding it, so the owner lets
// go too.
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
	"sync/atomic"

	"cubrick/internal/metrics"
)

// evictWindow bounds how many LRU-tail entries an eviction examines when
// picking the coldest victim; beyond it, recency wins over heat.
const evictWindow = 32

// Resident is implemented by values their owner holds outside the cache as
// well; they must be comparable. Heat is the value's live hotness, read
// when ranking eviction victims instead of the heat it was put with. Used
// reports whether the owner served the value since the cache last asked,
// and clears that mark: the owner's hits never reach the cache, so this is
// how they keep the value recent. Dropped is called whenever the cache
// stops holding the value — evicted, deleted, rejected as larger than the
// budget, or replaced by another value under its key — so the owner lets
// go of it too. All three run under the cache's lock and may not call back
// into the cache.
type Resident interface {
	Heat() float64
	Used() bool
	Dropped()
}

// Cache is a byte-budgeted, heat-aware LRU. Safe for concurrent use.
type Cache struct {
	mu    sync.Mutex
	max   int64
	bytes int64
	lru   *list.List // front = most recently used
	byKey map[string]*list.Element

	// The counters are atomic so that Count takes no lock: an owner that
	// serves hits outside the cache counts them from its own hot path.
	hits, misses, evictions atomic.Int64

	// m holds the metric handles SetMetrics resolved; nil until then.
	m atomic.Pointer[handles]
}

type handles struct {
	hit, miss, evict *metrics.Counter
	bytes, entries   *metrics.Gauge
}

type entry struct {
	key   string
	value any
	bytes int64
	heat  float64
}

// heatNow is the entry's heat for eviction: a Resident value's live heat,
// otherwise the heat it was last put or looked up with.
func (e *entry) heatNow() float64 {
	if r, ok := e.value.(Resident); ok {
		return r.Heat()
	}
	return e.heat
}

// dropped tells a Resident value that the cache no longer holds it.
func dropped(v any) {
	if r, ok := v.(Resident); ok {
		r.Dropped()
	}
}

// sameResident reports whether a and b are the same Resident value: one
// put again under its key to re-price it. Only Resident values are
// compared, so a key may hold values of a type == cannot compare.
func sameResident(a, b any) bool {
	_, ok := a.(Resident)
	return ok && a == b
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
	c.m.Store(&handles{
		hit:     reg.Counter(prefix + ".hit"),
		miss:    reg.Counter(prefix + ".miss"),
		evict:   reg.Counter(prefix + ".evict"),
		bytes:   reg.Gauge(prefix + ".bytes"),
		entries: reg.Gauge(prefix + ".entries"),
	})
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
	v, ok := c.peekLocked(key, heat)
	c.mu.Unlock()
	c.Count(ok)
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

// Count records the outcome of one lookup the owner settled itself — a
// Peek, or a hit served from a Resident value it holds. It takes no lock.
func (c *Cache) Count(hit bool) {
	if c == nil {
		return
	}
	m := c.m.Load()
	if hit {
		c.hits.Add(1)
		if m != nil {
			m.hit.Inc()
		}
		return
	}
	c.misses.Add(1)
	if m != nil {
		m.miss.Inc()
	}
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

// Put inserts (or replaces) key with a value costing bytes, evicting
// coldest-of-the-oldest entries until the budget holds. Entries larger
// than the whole budget are rejected rather than wiping the cache — and
// dropped if already resident, so an entry that outgrew the budget is not
// kept at its old price.
func (c *Cache) Put(key string, v any, bytes int64, heat float64) {
	if c == nil {
		dropped(v)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	switch {
	case bytes > c.max:
		if !ok || !sameResident(v, el.Value.(*entry).value) {
			dropped(v)
		}
		if ok {
			c.evictLocked(el)
		}
	case ok:
		e := el.Value.(*entry)
		if !sameResident(e.value, v) {
			dropped(e.value)
		}
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
// recently used ones. A Resident value its owner used since the last look
// is no candidate: it moves to the front instead, as a Get would have
// moved it. Caller holds c.mu and guarantees the cache is non-empty
// (bytes > max implies at least one entry).
func (c *Cache) evictColdest() {
	var victim *list.Element
	coldest := 0.0
	// Moved entries land ahead of the walk and are met again, their marks
	// cleared; the step bound holds however often owners mark meanwhile.
	el, seen := c.lru.Back(), 0
	for steps := 2 * c.lru.Len(); el != nil && seen < evictWindow && steps > 0; steps-- {
		prev := el.Prev()
		e := el.Value.(*entry)
		if r, ok := e.value.(Resident); ok && r.Used() {
			c.lru.MoveToFront(el)
		} else {
			if h := e.heatNow(); victim == nil || h < coldest {
				victim, coldest = el, h
			}
			seen++
		}
		el = prev
	}
	if victim == nil {
		victim = c.lru.Back()
	}
	c.evictLocked(victim)
}

// evictLocked drops one entry and counts it as an eviction.
func (c *Cache) evictLocked(el *list.Element) {
	c.removeLocked(el)
	c.evictions.Add(1)
	if m := c.m.Load(); m != nil {
		m.evict.Inc()
	}
}

func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.byKey, e.key)
	c.bytes -= e.bytes
	dropped(e.value)
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
	if m := c.m.Load(); m != nil {
		m.bytes.Set(float64(c.bytes))
		m.entries.Set(float64(c.lru.Len()))
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
		Hits: c.hits.Load(), Misses: c.misses.Load(), Evictions: c.evictions.Load(),
		Bytes: c.bytes, Entries: c.lru.Len(),
	}
}
