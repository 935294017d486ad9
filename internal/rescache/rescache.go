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
package rescache

import (
	"maps"
	"sort"
	"strings"
	"sync/atomic"

	"cubrick/internal/engine"
	"cubrick/internal/metrics"
	"cubrick/internal/scancache"
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
func (k Key) String() string {
	var b strings.Builder
	b.Grow(len(k.Table) + len(k.FoldKey) + len(k.Residue) + 2)
	b.WriteString(k.Table)
	b.WriteByte(0x1e)
	b.WriteString(k.FoldKey)
	b.WriteByte(0x1e)
	b.WriteString(k.Residue)
	return b.String()
}

// KeyFor derives the cache key for a query against a table.
func KeyFor(table string, q *engine.Query) Key {
	return Key{Table: table, FoldKey: engine.FoldKey(q), Residue: engine.ResidueKey(q)}
}

// entry is one cached finished result plus the epoch vector it was
// computed at: one (partition, epoch) pair per partition that contributed.
// Put never changes an entry, so a lookup reads it without a lock.
type entry struct {
	res    *engine.Result
	epochs map[string]uint64
}

// Stats is a snapshot of cache counters.
type Stats struct {
	Hits, Misses, Evictions, Invalidations int64
	Bytes, Entries                         int64
}

// Cache is a bounded-byte LRU of finished results: scancache's LRU with no
// heat signal, plus epoch-vector validation and an invalidation count. A
// nil *Cache is valid and never hits.
type Cache struct {
	lru           *scancache.Cache
	invalidations atomic.Int64
	mInval        atomic.Pointer[metrics.Counter] // set by SetMetrics
}

// New returns a result cache bounded to maxBytes; non-positive budgets
// return nil (caching off).
func New(maxBytes int64) *Cache {
	lru := scancache.New(maxBytes)
	if lru == nil {
		return nil
	}
	return &Cache{lru: lru}
}

// SetMetrics routes hit/miss/evict/invalidate/bytes instrumentation into
// reg under the cache.result.* names.
func (c *Cache) SetMetrics(reg *metrics.Registry) {
	if c == nil || reg == nil {
		return
	}
	c.lru.SetMetrics(reg, "cache.result")
	c.mInval.Store(reg.Counter("cache.result.invalidate"))
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
	v, ok := c.lru.Peek(ks, 0)
	if !ok {
		c.lru.Count(false)
		return nil, false
	}
	e := v.(*entry)
	for part, cachedEpoch := range e.epochs {
		cur, known := current(part)
		if !known {
			// No epoch knowledge for this partition (coordinator restart,
			// membership change): cannot prove freshness, so miss without
			// destroying an entry that may validate later.
			c.lru.Count(false)
			return nil, false
		}
		if cur != cachedEpoch {
			if c.lru.Delete(ks) {
				c.invalidated(1)
			}
			c.lru.Count(false)
			return nil, false
		}
	}
	c.lru.Count(true)
	return cloneResult(e.res), true
}

// Put stores a deep copy of res under key, recording the epoch vector it
// was computed at. Results with Coverage < 1 are rejected — a degraded
// answer must never be replayed as the answer. Entries larger than the
// whole budget are rejected.
func (c *Cache) Put(key Key, res *engine.Result, epochs map[string]uint64) {
	if c == nil || res == nil || res.Coverage < 1 {
		return
	}
	snap := cloneResult(res)
	ks := key.String()
	size := resultBytes(snap) + int64(len(ks)) + int64(len(epochs))*48 + 96
	c.lru.Put(ks, &entry{res: snap, epochs: maps.Clone(epochs)}, size, 0)
}

// Invalidate drops every entry whose epoch vector includes partition —
// used when the coordinator learns of an ingest before it knows the new
// epoch value (so validation-on-get cannot be relied on).
func (c *Cache) Invalidate(partition string) {
	if c == nil {
		return
	}
	c.invalidated(c.lru.DeleteFunc(func(v any) bool {
		_, ok := v.(*entry).epochs[partition]
		return ok
	}))
}

func (c *Cache) invalidated(n int) {
	c.invalidations.Add(int64(n))
	if m := c.mInval.Load(); m != nil {
		m.Add(int64(n))
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := c.lru.Stats()
	return Stats{Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions,
		Invalidations: c.invalidations.Load(), Bytes: st.Bytes, Entries: int64(st.Entries)}
}

// cloneResult deep-copies a Result so cached state is never aliased by a
// caller that sorts, truncates or otherwise mutates what it received.
func cloneResult(r *engine.Result) *engine.Result {
	out := *r
	out.Columns = append([]string(nil), r.Columns...)
	out.Rows = make([][]float64, len(r.Rows))
	for i, row := range r.Rows {
		out.Rows[i] = append([]float64(nil), row...)
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

// SortedPartitions returns the partitions of an epoch vector in sorted
// order — handy for deterministic tests and logging.
func SortedPartitions(epochs map[string]uint64) []string {
	out := make([]string, 0, len(epochs))
	for p := range epochs {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
