// Package rescache implements the coordinator-side result cache: finished
// query Results keyed on the full query identity (fold key plus residue —
// aliases, ORDER BY, LIMIT, HAVING) and validated against a per-partition
// ingest-epoch vector. A hit returns the completed Result with zero
// fan-out; any partition whose epoch has advanced past the cached vector
// invalidates the entry exactly (epochs are monotonic, so a stale entry
// can never become valid again and is deleted on sight rather than
// revalidated).
//
// Only exact results are cacheable: entries with Coverage < 1 were built
// under a degradation policy from a partial partition set and must never
// be replayed as answers.
//
// The cache is a plain keyed LRU under a byte budget: a hit moves its
// entry to the front, and a put evicts from the back until the budget
// holds.
package rescache

import (
	"container/list"
	"maps"
	"sync"
	"sync/atomic"

	"cubrick/internal/engine"
	"cubrick/internal/metrics"
)

// Key identifies one cacheable query against one table. FoldKey pins the
// scan semantics (aggregates, grouping, filters); Residue pins the
// finalize-time parameters FoldKey deliberately ignores. Two dashboard
// tiles sharing a fold key but differing in LIMIT land in different
// entries.
type Key struct {
	Table   string
	FoldKey string
	Residue string
}

// String flattens the key for map storage with unambiguous separators.
func (k Key) String() string { return k.Table + "\x1e" + k.FoldKey + "\x1e" + k.Residue }

// KeyFor derives the cache key for a query against a table.
func KeyFor(table string, q *engine.Query) Key {
	return Key{Table: table, FoldKey: engine.FoldKey(q), Residue: engine.ResidueKey(q)}
}

// entry is one cached finished result plus the epoch vector it was
// computed at: one (partition, epoch) pair per partition that contributed.
// Put never changes an entry's result or vector, so a lookup validates it
// outside the lock.
type entry struct {
	key    string
	res    *engine.Result
	epochs map[string]uint64
	bytes  int64
}

// Stats is a snapshot of cache counters.
type Stats struct {
	Hits, Misses, Evictions, Invalidations int64
	Bytes, Entries                         int64
}

// Cache is a byte-budgeted LRU of finished results, validated by epoch
// vector on every hit. Safe for concurrent use. A nil *Cache is valid and
// never hits.
type Cache struct {
	mu    sync.Mutex
	max   int64
	bytes int64
	lru   list.List // of *entry; front = most recently used
	byKey map[string]*list.Element

	hits, misses, evictions, invalidations atomic.Int64

	// m holds the metric handles SetMetrics resolved; nil until then.
	m atomic.Pointer[handles]
}

type handles struct {
	hit, miss, evict, inval *metrics.Counter
	bytes, entries          *metrics.Gauge
}

// New returns a result cache bounded to maxBytes; non-positive budgets
// return nil (caching off).
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	return &Cache{max: maxBytes, byKey: make(map[string]*list.Element)}
}

// SetMetrics routes hit/miss/evict/invalidate/bytes/entries
// instrumentation into reg under the cache.result.* names.
func (c *Cache) SetMetrics(reg *metrics.Registry) {
	if c == nil || reg == nil {
		return
	}
	c.m.Store(&handles{
		hit:     reg.Counter("cache.result.hit"),
		miss:    reg.Counter("cache.result.miss"),
		evict:   reg.Counter("cache.result.evict"),
		inval:   reg.Counter("cache.result.invalidate"),
		bytes:   reg.Gauge("cache.result.bytes"),
		entries: reg.Gauge("cache.result.entries"),
	})
}

// Get returns a private deep copy of the cached Result for key, provided
// every partition the entry was computed over still reports the epoch the
// entry was built at. current reports a partition's latest known epoch
// (ok=false when the coordinator has no epoch knowledge for it — treated
// as unverifiable, so the entry is kept but not served). A vector mismatch
// deletes the entry immediately: epochs only grow, so the stored result
// can never become fresh again.
func (c *Cache) Get(key Key, current func(partition string) (uint64, bool)) (*engine.Result, bool) {
	if c == nil {
		return nil, false
	}
	ks := key.String()
	var e *entry
	c.mu.Lock()
	el, ok := c.byKey[ks]
	if ok {
		c.lru.MoveToFront(el)
		e = el.Value.(*entry)
	}
	c.mu.Unlock()
	if !ok {
		c.count(false)
		return nil, false
	}
	for part, cachedEpoch := range e.epochs {
		cur, known := current(part)
		if !known {
			// No epoch knowledge for this partition (coordinator restart,
			// membership change): cannot prove freshness, so miss without
			// destroying an entry that may validate later.
			c.count(false)
			return nil, false
		}
		if cur != cachedEpoch {
			c.mu.Lock()
			// Only this entry goes: a fresh one put under the key
			// meanwhile stays.
			if c.byKey[ks] == el {
				c.removeLocked(el)
				c.invalidated(1)
			}
			c.mu.Unlock()
			c.count(false)
			return nil, false
		}
	}
	c.count(true)
	return cloneResult(e.res), true
}

// Put stores a deep copy of res under key, recording the epoch vector it
// was computed at, and evicts least recently used entries until the budget
// holds. Results with Coverage < 1 are rejected — a degraded answer must
// never be replayed as the answer. Entries larger than the whole budget
// are rejected.
func (c *Cache) Put(key Key, res *engine.Result, epochs map[string]uint64) {
	if c == nil || res == nil || res.Coverage < 1 {
		return
	}
	ks := key.String()
	size := resultBytes(res) + int64(len(ks)) + int64(len(epochs))*48 + 96
	if size > c.max {
		return
	}
	e := &entry{key: ks, res: cloneResult(res), epochs: maps.Clone(epochs), bytes: size}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[e.key]; ok {
		c.removeLocked(el)
	}
	c.byKey[e.key] = c.lru.PushFront(e)
	c.bytes += e.bytes
	m := c.m.Load()
	for c.bytes > c.max {
		c.removeLocked(c.lru.Back())
		c.evictions.Add(1)
		if m != nil {
			m.evict.Inc()
		}
	}
	c.publishLocked()
}

// Invalidate drops every entry whose epoch vector includes partition —
// used when the coordinator learns of an ingest before it knows the new
// epoch value (so validation-on-get cannot be relied on).
func (c *Cache) Invalidate(partition string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if _, ok := el.Value.(*entry).epochs[partition]; ok {
			c.removeLocked(el)
			n++
		}
		el = next
	}
	c.invalidated(n)
}

// removeLocked drops one entry; it is not counted as an eviction. Caller
// holds c.mu.
func (c *Cache) removeLocked(el *list.Element) {
	e := c.lru.Remove(el).(*entry)
	delete(c.byKey, e.key)
	c.bytes -= e.bytes
	c.publishLocked()
}

func (c *Cache) publishLocked() {
	if m := c.m.Load(); m != nil {
		m.bytes.Set(float64(c.bytes))
		m.entries.Set(float64(c.lru.Len()))
	}
}

func (c *Cache) count(hit bool) {
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

func (c *Cache) invalidated(n int) {
	c.invalidations.Add(int64(n))
	if m := c.m.Load(); m != nil {
		m.inval.Add(int64(n))
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load(), Evictions: c.evictions.Load(),
		Invalidations: c.invalidations.Load(), Bytes: c.bytes, Entries: int64(c.lru.Len())}
}

// cloneResult deep-copies a Result so cached state is never aliased by a
// caller that sorts, truncates or otherwise mutates what it received. The
// rows are copied into one flat array, each capped at its own length.
func cloneResult(r *engine.Result) *engine.Result {
	out := *r
	out.Columns = append([]string(nil), r.Columns...)
	out.Rows = make([][]float64, len(r.Rows))
	n := 0
	for _, row := range r.Rows {
		n += len(row)
	}
	flat := make([]float64, n)
	for i, row := range r.Rows {
		if len(row) > 0 {
			out.Rows[i] = flat[:len(row):len(row)]
			flat = flat[copy(out.Rows[i], row):]
		}
	}
	out.MissingPartitions = append([]string(nil), r.MissingPartitions...)
	return &out
}

// resultBytes prices a Result for the byte budget: cells, headers, and
// fixed struct overhead.
func resultBytes(r *engine.Result) int64 {
	var n int64 = 128
	for _, c := range r.Columns {
		n += int64(len(c)) + 16
	}
	for _, row := range r.Rows {
		n += int64(len(row))*8 + 24
	}
	for _, p := range r.MissingPartitions {
		n += int64(len(p)) + 16
	}
	return n
}
