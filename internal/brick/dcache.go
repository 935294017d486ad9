package brick

import (
	"container/list"
	"sync"
	"sync/atomic"

	"cubrick/internal/metrics"
)

// DecodedCache keeps hot compressed bricks' decoded columns pinned in
// memory so the inflate and dict/RLE/Gorilla unpack cost is paid once per
// (brick, ingest epoch, column) instead of on every scan. Each brick has
// at most one entry — a decodedBrick with a slot per column — shared by
// every projection that visits the brick: a visit decodes only the slots
// its projection needs and the entry lacks, and the grown entry is
// re-priced in place. The projection is deliberately not part of the
// entry's identity: ad-hoc traffic draws dozens of shapes, and a copy of
// the same columns per shape (~9 per brick, measured) overflows the budget
// and turns one visit in five into a re-inflate and re-decode.
//
// The entry lives on its brick (Brick.dec) and records the epoch it was
// decoded at, so a visit, which already holds the brick lock, hits without
// a lookup or any shared lock, and counts the hit lock-free. The cache
// itself is only the byte budget and a recency list of the entries,
// touched when an entry is filled, grows, is replaced by a new epoch's or
// is evicted; an eviction clears the brick's pointer without taking the
// brick lock. Eviction ranks the evictWindow least recently used entries
// by their brick's live hotness, the same signal that moves bricks along
// the tier ladder, so a briefly idle hot brick outlives a cold one filled
// a moment ago. A visit is a hit when it had to decode nothing, a miss
// otherwise.
//
// A nil *DecodedCache is valid and never hits.
type DecodedCache struct {
	mu    sync.Mutex
	max   int64
	bytes int64
	lru   list.List // of *decodedBrick; front = most recently filled or used

	// The counters are atomic so that a hit, counted on the visit's own
	// path, takes no lock.
	hits, misses, evictions atomic.Int64

	// m holds the metric handles SetMetrics resolved; nil until then.
	m atomic.Pointer[decodedHandles]
}

type decodedHandles struct {
	hit, miss, evict *metrics.Counter
	bytes, entries   *metrics.Gauge
}

// evictWindow bounds how many least recently used entries an eviction
// examines when picking the coldest victim; beyond it, recency wins over
// heat.
const evictWindow = 32

// NewDecodedCache returns a cache bounded to maxBytes; non-positive
// budgets return nil (caching off).
func NewDecodedCache(maxBytes int64) *DecodedCache {
	if maxBytes <= 0 {
		return nil
	}
	return &DecodedCache{max: maxBytes}
}

// SetMetrics routes hit/miss/evict/bytes/entries instrumentation into reg
// under the cache.decoded.* names.
func (d *DecodedCache) SetMetrics(reg *metrics.Registry) {
	if d == nil || reg == nil {
		return
	}
	d.m.Store(&decodedHandles{
		hit:     reg.Counter("cache.decoded.hit"),
		miss:    reg.Counter("cache.decoded.miss"),
		evict:   reg.Counter("cache.decoded.evict"),
		bytes:   reg.Gauge("cache.decoded.bytes"),
		entries: reg.Gauge("cache.decoded.entries"),
	})
}

// DecodedStats is a point-in-time snapshot of a DecodedCache.
type DecodedStats struct {
	Hits, Misses, Evictions int64
	Bytes                   int64
	Entries                 int
}

// Stats returns the cache's lifetime counters and current size. A nil
// cache reports zeros.
func (d *DecodedCache) Stats() DecodedStats {
	if d == nil {
		return DecodedStats{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return DecodedStats{
		Hits: d.hits.Load(), Misses: d.misses.Load(), Evictions: d.evictions.Load(),
		Bytes: d.bytes, Entries: d.lru.Len(),
	}
}

// hit counts a visit its brick's entry served whole; it takes no lock.
func (d *DecodedCache) hit() {
	d.hits.Add(1)
	if m := d.m.Load(); m != nil {
		m.hit.Inc()
	}
}

// put (re)prices an entry that was filled or grew during a visit, moves it
// to the front and counts the visit as a miss, then evicts until the
// budget holds. An entry larger than the whole budget leaves the cache
// (counted as an eviction if it was in it) and its brick instead of
// staying at its old price.
func (d *DecodedCache) put(e *decodedBrick) {
	d.misses.Add(1)
	m := d.m.Load()
	if m != nil {
		m.miss.Inc()
	}
	price := batchBytes(&e.cols)
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case price > d.max:
		if e.el != nil {
			d.evictLocked(e, m)
		} else {
			e.b.dec.CompareAndSwap(e, nil)
		}
	case e.el == nil:
		e.el = d.lru.PushFront(e)
	default:
		d.lru.MoveToFront(e.el)
	}
	if e.el != nil {
		d.bytes += price - e.price
		e.price = price
	}
	for d.bytes > d.max {
		d.evictLocked(d.coldestLocked(), m)
	}
	d.publishLocked(m)
}

// remove takes e out of the cache, if it is still in it, without counting
// an eviction: its brick left its store, or a new epoch's entry replaces
// it.
func (d *DecodedCache) remove(e *decodedBrick) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e.el != nil {
		d.unlinkLocked(e)
		d.publishLocked(d.m.Load())
	}
}

// coldestLocked picks the eviction victim: the entry whose brick is coldest
// now among the evictWindow least recently used ones. An entry hit since
// the last look is no candidate: it moves to the front instead, as a hit
// reaching the cache would have moved it (a second chance). Moved entries
// land ahead of the walk and are met again, their marks cleared; the step
// bound holds however often visits mark meanwhile. Caller holds d.mu, and
// the list is non-empty (bytes > max implies an entry).
func (d *DecodedCache) coldestLocked() *decodedBrick {
	var victim *decodedBrick
	coldest := 0.0
	el, seen := d.lru.Back(), 0
	for steps := 2 * d.lru.Len(); el != nil && seen < evictWindow && steps > 0; steps-- {
		prev := el.Prev()
		e := el.Value.(*decodedBrick)
		if e.used.CompareAndSwap(true, false) {
			d.lru.MoveToFront(el)
		} else {
			if h := e.b.Hotness(); victim == nil || h < coldest {
				victim, coldest = e, h
			}
			seen++
		}
		el = prev
	}
	if victim == nil {
		victim = d.lru.Back().Value.(*decodedBrick)
	}
	return victim
}

// evictLocked drops e and counts an eviction. Caller holds d.mu.
func (d *DecodedCache) evictLocked(e *decodedBrick, m *decodedHandles) {
	d.unlinkLocked(e)
	d.evictions.Add(1)
	if m != nil {
		m.evict.Inc()
	}
}

// unlinkLocked takes e off the list and the budget and clears its brick's
// pointer, unless the brick has moved on to another entry. It must not
// take the brick's lock: a visit holds it while it puts. Caller holds d.mu.
func (d *DecodedCache) unlinkLocked(e *decodedBrick) {
	d.lru.Remove(e.el)
	d.bytes -= e.price
	e.el, e.price = nil, 0
	e.b.dec.CompareAndSwap(e, nil)
}

func (d *DecodedCache) publishLocked(m *decodedHandles) {
	if m != nil {
		m.bytes.Set(float64(d.bytes))
		m.entries.Set(float64(d.lru.Len()))
	}
}

// decodedBrick is the cache entry of one brick at one epoch: the union of
// every column slot decoded so far, nil where nothing was asked for yet. A
// dimension slot always holds the column's most compact form first — its
// run view (RLE, constant FOR), its code+dict view (dictionary) or, for
// encodings with neither, its values — because the blob is only ever walked
// with ColGroupEncoded; the values of a run or dictionary column are
// expanded from that view the first time a projection needs them.
//
// All visits of a brick run under its lock, so an entry has one writer and
// no reader beside it; the cache only links and unlinks the entry and
// reads the brick's hotness and the used mark. The entry points back at
// its brick for as long as the cache holds it: a brick that leaves its
// store is retired, which removes its entry.
type decodedBrick struct {
	cols  Batch
	b     *Brick
	dc    *DecodedCache
	epoch uint64
	// used marks a hit since the cache last looked at the entry; hits
	// never reach the cache, so this is what keeps a hit entry recent.
	used atomic.Bool
	// el is the entry's place in dc's recency list (nil when the cache
	// does not hold it) and price its bytes there; both guarded by dc.mu.
	el    *list.Element
	price int64
}

// newDecodedBrick returns an empty entry for b at its current epoch in dc.
// Caller holds b.mu.
func newDecodedBrick(b *Brick, dc *DecodedCache, nDims, nMetrics int) *decodedBrick {
	return &decodedBrick{b: b, dc: dc, epoch: b.epoch, cols: Batch{
		Dims: make([][]uint32, nDims), Metrics: make([][]float64, nMetrics), Rows: b.rows,
		DimRuns: make([][]Run, nDims), DimCodes: make([][]uint32, nDims), DimDict: make([][]uint32, nDims),
	}}
}

// markUsed records a hit for the cache's recency; it writes only when the
// mark is not already set.
func (e *decodedBrick) markUsed() {
	if !e.used.Load() {
		e.used.Store(true)
	}
}

// missing reports which of the columns proj references the entry cannot
// serve, as the projection to walk the blob with (built in sc); nil when
// the entry covers proj.
func (e *decodedBrick) missing(proj *Projection, sc *visitScratch) *Projection {
	c := &e.cols
	nDims, nMetrics := len(c.Dims), len(c.Metrics)
	miss := &sc.miss
	miss.Dims, miss.Metrics = miss.Dims[:0], miss.Metrics[:0]
	need := false
	for i := 0; i < nDims; i++ {
		want := ColSkip
		if proj.dim(i) != ColSkip && c.Dims[i] == nil && c.DimRuns[i] == nil && c.DimCodes[i] == nil {
			want, need = ColGroupEncoded, true
		}
		miss.Dims = append(miss.Dims, want)
	}
	for i := 0; i < nMetrics; i++ {
		want := proj.metric(i) && c.Metrics[i] == nil
		need = need || want
		miss.Metrics = append(miss.Metrics, want)
	}
	if !need {
		return nil
	}
	return miss
}

// adopt moves the slots a blob walk decoded (into buffers nobody else
// holds) into the entry.
func (e *decodedBrick) adopt(got *Batch) {
	c := &e.cols
	for i := range got.Dims {
		switch {
		case got.DimRuns[i] != nil:
			c.DimRuns[i] = got.DimRuns[i]
		case got.DimCodes[i] != nil:
			c.DimCodes[i], c.DimDict[i] = got.DimCodes[i], got.DimDict[i]
		case got.Dims[i] != nil:
			c.Dims[i] = got.Dims[i]
		}
	}
	for i, col := range got.Metrics {
		if col != nil {
			c.Metrics[i] = col
		}
	}
}

// view fills out (a prepared, all-nil batch) with exactly what an uncached
// decode of proj delivers, aliasing the entry's slots. Every column proj
// references must be present (missing returned nil, or its walk was
// adopted). grew reports that values had to be expanded from a run or
// dictionary view, which changes the entry's byte cost.
func (e *decodedBrick) view(proj *Projection, out *Batch) (grew bool) {
	c := &e.cols
	out.Rows = c.Rows
	for i := range c.Dims {
		switch proj.dim(i) {
		case ColNeed:
			if c.Dims[i] == nil {
				vals := make([]uint32, c.Rows)
				if runs := c.DimRuns[i]; runs != nil {
					expandRuns(runs, vals)
				} else {
					expandCodes(c.DimCodes[i], c.DimDict[i], vals)
				}
				c.Dims[i], grew = vals, true
			}
			out.Dims[i] = c.Dims[i]
		case ColGroupEncoded:
			switch {
			case c.DimRuns[i] != nil:
				out.DimRuns[i] = c.DimRuns[i]
			case c.DimCodes[i] != nil:
				out.DimCodes[i], out.DimDict[i] = c.DimCodes[i], c.DimDict[i]
			default:
				out.Dims[i] = c.Dims[i]
			}
		}
	}
	for i := range c.Metrics {
		if proj.metric(i) {
			out.Metrics[i] = c.Metrics[i]
		}
	}
	return grew
}

// batchBytes prices a cached entry: the decoded column slots it pins and
// the slice headers that hold them.
func batchBytes(b *Batch) int64 {
	n := int64(128 + 24*(4*len(b.Dims)+len(b.Metrics)))
	for _, col := range b.Dims {
		n += int64(4 * len(col))
	}
	for _, col := range b.Metrics {
		n += int64(8 * len(col))
	}
	for _, runs := range b.DimRuns {
		n += int64(8 * len(runs))
	}
	for _, codes := range b.DimCodes {
		n += int64(4 * len(codes))
	}
	for _, dict := range b.DimDict {
		n += int64(4 * len(dict))
	}
	return n
}

// dcacheRef is the nil-safe holder bricks share with their store, so
// attaching a cache after bricks exist still reaches them.
type dcacheRef struct {
	p atomic.Pointer[DecodedCache]
}

func (r *dcacheRef) load() *DecodedCache {
	if r == nil {
		return nil
	}
	return r.p.Load()
}

func (r *dcacheRef) store(dc *DecodedCache) {
	r.p.Store(dc)
}
