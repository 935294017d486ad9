package brick

import (
	"strconv"
	"sync/atomic"

	"cubrick/internal/metrics"
	"cubrick/internal/scancache"
)

// DecodedCache keeps hot compressed bricks' decoded columns pinned in
// memory so the inflate and dict/RLE/Gorilla unpack cost is paid once per
// (brick generation, ingest epoch, column) instead of on every scan. There
// is one entry per (brick generation, epoch) — a decodedBrick with a slot
// per column — shared by every projection that visits the brick: a visit
// decodes only the slots its projection needs and the entry lacks, and the
// grown entry is re-priced in place. The projection is deliberately not
// part of the key: ad-hoc traffic draws dozens of shapes, and a copy of the
// same columns per shape (~9 per brick, measured) overflows the budget and
// turns one visit in five into a re-inflate and re-decode.
//
// Entries are keyed on the exact epoch observed under the brick lock during
// the decode, so an ingest simply strands the old entry — no purge protocol
// — and eviction is driven by the brick's live hotness (scancache's
// heat-aware LRU), which is the PR-5 ladder deciding residency. A lookup is
// a hit when the visit had to decode nothing, a miss otherwise.
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

// get returns the brick generation's entry, nil when there is none. It
// does not count: the visit settles hit or miss once it knows whether the
// entry held everything (hit) or had to grow (put).
func (d *DecodedCache) get(key string, heat float64) *decodedBrick {
	if v, ok := d.c.Peek(key, heat); ok {
		return v.(*decodedBrick)
	}
	return nil
}

func (d *DecodedCache) hit() { d.c.Count(true) }

// put (re)publishes an entry that grew during a visit at its new byte
// cost and counts the visit as a miss.
func (d *DecodedCache) put(key string, e *decodedBrick, heat float64) {
	d.c.Count(false)
	d.c.Put(key, e, batchBytes(&e.cols), heat)
}

// dcacheKey derives the cache key of one brick's decoded columns: the
// brick's process-wide generation uid (Import creates fresh uids, so
// replaced bricks can never alias) and the exact ingest epoch the decode
// observed. Which columns a scan wants is not part of the key — that is
// what the entry's slots are for.
func dcacheKey(uid, epoch uint64) string {
	buf := make([]byte, 0, 41)
	buf = strconv.AppendUint(buf, uid, 10)
	buf = append(buf, ':')
	buf = strconv.AppendUint(buf, epoch, 10)
	return string(buf)
}

// decodedBrick is the cache entry of one (brick generation, epoch): the
// union of every column slot decoded so far, nil where nothing was asked
// for yet. A dimension slot always holds the column's most compact form
// first — its run view (RLE, constant FOR), its code+dict view (dictionary)
// or, for encodings with neither, its values — because the blob is only
// ever walked with ColGroupEncoded; the values of a run or dictionary column
// are expanded from that view the first time a projection needs them.
//
// All visits of a brick run under its lock, so an entry has one writer and
// no reader beside it; the cache only moves the pointer around.
type decodedBrick struct {
	cols Batch
}

func newDecodedBrick(nDims, nMetrics, rows int) *decodedBrick {
	return &decodedBrick{cols: Batch{
		Dims: make([][]uint32, nDims), Metrics: make([][]float64, nMetrics), Rows: rows,
		DimRuns: make([][]Run, nDims), DimCodes: make([][]uint32, nDims), DimDict: make([][]uint32, nDims),
	}}
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
