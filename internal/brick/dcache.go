package brick

import (
	"strconv"
	"sync/atomic"

	"cubrick/internal/metrics"
	"cubrick/internal/scancache"
)

// DecodedCache keeps hot compressed bricks' decoded columns pinned in
// memory so the inflate and dict/RLE/Gorilla unpack cost is paid once per
// (brick generation, ingest epoch, column) instead of on every scan. Each
// brick has at most one entry — a decodedBrick with a slot per column —
// shared by every projection that visits the brick: a visit decodes only
// the slots its projection needs and the entry lacks, and the grown entry
// is re-priced in place. The projection is deliberately not part of the
// entry's identity: ad-hoc traffic draws dozens of shapes, and a copy of
// the same columns per shape (~9 per brick, measured) overflows the budget
// and turns one visit in five into a re-inflate and re-decode.
//
// The entry lives on its brick (Brick.dec) and records the epoch it was
// decoded at, so a visit, which already holds the brick lock, hits without
// a key, a map lookup or any shared lock, and counts the hit lock-free.
// The scancache underneath is only the byte budget and the eviction order,
// touched when an entry is filled, grows or is evicted: it keys entries by
// brick generation alone, so an ingest's new-epoch entry replaces the
// stranded one, and an eviction clears the brick's pointer (never taking
// the brick lock). Eviction ranks entries by their brick's live hotness
// (scancache's heat-aware LRU), the same signal that moves bricks along
// the tier ladder. A visit is a hit when it had to decode nothing, a miss
// otherwise.
//
// A nil *DecodedCache is valid and never hits.
type DecodedCache struct {
	c *scancache.Cache
}

// NewDecodedCache returns a cache bounded to maxBytes; non-positive
// budgets return nil (caching off).
func NewDecodedCache(maxBytes int64) *DecodedCache {
	c := scancache.New(maxBytes)
	if c == nil {
		return nil
	}
	return &DecodedCache{c: c}
}

// SetMetrics routes hit/miss/evict/bytes instrumentation into reg under
// the cache.decoded.* names.
func (d *DecodedCache) SetMetrics(reg *metrics.Registry) {
	if d == nil {
		return
	}
	d.c.SetMetrics(reg, "cache.decoded")
}

// Stats returns the underlying cache counters.
func (d *DecodedCache) Stats() scancache.Stats {
	if d == nil {
		return scancache.Stats{}
	}
	return d.c.Stats()
}

// hit counts a visit its brick's entry served whole; it takes no lock.
func (d *DecodedCache) hit() { d.c.Count(true) }

// put (re)publishes an entry that was filled or grew during a visit at its
// new byte cost and counts the visit as a miss.
func (d *DecodedCache) put(e *decodedBrick) {
	d.c.Count(false)
	d.c.Put(e.key, e, batchBytes(&e.cols), 0)
}

// remove takes e, whose brick left its store, out of the cache.
func (d *DecodedCache) remove(e *decodedBrick) { d.c.Delete(e.key) }

// dcacheKey derives the cache key of one brick's decoded columns: the
// brick's process-wide generation uid alone (Import creates fresh uids, so
// replaced bricks can never alias). Neither the epoch nor the columns a
// scan wants are part of it: a brick has one entry, which a new epoch's
// replaces and whose slots hold the columns.
func dcacheKey(uid uint64) string {
	return strconv.FormatUint(uid, 10)
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
// no reader beside it; the cache only moves the pointer around and reads
// the brick's hotness and the used mark. The entry points back at its
// brick for as long as the cache holds it: a brick that leaves its store
// is retired, which removes its entry.
type decodedBrick struct {
	cols  Batch
	b     *Brick
	dc    *DecodedCache
	epoch uint64
	key   string
	// used marks a hit since the cache last looked at the entry; hits
	// never reach the cache, so this is what keeps a hit entry recent.
	used atomic.Bool
}

// newDecodedBrick returns an empty entry for b at its current epoch in dc.
// Caller holds b.mu.
func newDecodedBrick(b *Brick, dc *DecodedCache, nDims, nMetrics int) *decodedBrick {
	return &decodedBrick{b: b, dc: dc, epoch: b.epoch, key: dcacheKey(b.uid), cols: Batch{
		Dims: make([][]uint32, nDims), Metrics: make([][]float64, nMetrics), Rows: b.rows,
		DimRuns: make([][]Run, nDims), DimCodes: make([][]uint32, nDims), DimDict: make([][]uint32, nDims),
	}}
}

// Heat is the brick's live hotness, by which eviction ranks the entry.
func (e *decodedBrick) Heat() float64 { return e.b.Hotness() }

// markUsed records a hit for the cache's recency; it writes only when the
// mark is not already set.
func (e *decodedBrick) markUsed() {
	if !e.used.Load() {
		e.used.Store(true)
	}
}

// Used reports a hit since the cache last asked, and clears the mark.
func (e *decodedBrick) Used() bool { return e.used.CompareAndSwap(true, false) }

// Dropped clears the brick's pointer once the cache stops holding the
// entry, unless the brick has moved on to another entry. It runs under
// the cache's lock, so it must not take the brick's: a visit holds the
// brick lock while it puts.
func (e *decodedBrick) Dropped() { e.b.dec.CompareAndSwap(e, nil) }

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
