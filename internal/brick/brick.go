package brick

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Brick is one cell of the granularly partitioned space: an unordered,
// columnar batch of rows whose dimension values all fall in the brick's
// per-dimension ranges. Bricks are the unit of hotness tracking and of
// adaptive compression (the paper also calls them "data blocks", Fig 4e).
//
// A brick lives in exactly one of three tiers:
//
//	raw      — materialized columns, scanned directly (hot)
//	encoded  — adaptive per-column lightweight blob (warm); scans decode
//	           only the referenced columns at bit-unpack speed
//	evicted  — flate(encoded blob) standing in for the SSD tier (cold);
//	           memory footprint zero, reads cost IOPS + inflate
type Brick struct {
	mu sync.Mutex

	// Uncompressed representation: one column per dimension and metric.
	dims    [][]uint32
	metrics [][]float64
	rows    int

	// encoded is the adaptive per-column blob; non-nil iff the brick is in
	// the encoded tier.
	encoded []byte
	// ssd is flate(encoded); non-nil iff the brick is evicted (§IV-F3).
	ssd []byte
	// encLen remembers len(encoded) while evicted, so tier planning can
	// price a promotion without inflating.
	encLen int

	// obs fans encode/decode events into the store's metrics registry;
	// nil-safe, shared by all bricks of a store.
	obs *storeObs

	// hotness is incremented whenever a query touches the brick and
	// decays stochastically over time (§IV-F2, inspired by LeanStore). It
	// holds float64 bits and is written only under mu, but read without
	// it: the decoded cache ranks eviction victims by it and may not take
	// mu (see decodedBrick.Heat).
	hotness atomic.Uint64

	// epoch is the brick's ingest epoch: the value of the store-wide
	// counter at the brick's most recent row append. It only ever grows,
	// is bumped inside the same critical section as the append (so a
	// reader holding b.mu can never see new rows under an old epoch), and
	// is what cache entries key on for exact invalidation. Tier changes
	// (Compress/Decompress/evict) do not bump it — the data is unchanged.
	epoch uint64
	// epochSrc is the store-wide monotonic counter the epoch is drawn
	// from, shared by every brick of a store; nil for store-less bricks
	// (tests), which then keep epoch 0.
	epochSrc *atomic.Uint64

	// dcache points at the store's decoded-column cache holder; shared by
	// all bricks so late attachment reaches existing bricks. May be nil.
	dcache *dcacheRef
	// dec is the brick's one decoded-column cache entry, nil when it has
	// none. A visit holding mu serves from it when it was decoded at the
	// brick's current epoch; the cache, which owns the byte budget, clears
	// it on eviction with a compare-and-swap and never takes mu.
	dec atomic.Pointer[decodedBrick]
}

func newBrick(nDims, nMetrics int) *Brick {
	return &Brick{dims: make([][]uint32, nDims), metrics: make([][]float64, nMetrics)}
}

// bumpEpochLocked advances the brick's ingest epoch from the store-wide
// counter. Caller holds b.mu; every row-append path calls it inside the
// same critical section as the append itself.
func (b *Brick) bumpEpochLocked() {
	if b.epochSrc != nil {
		b.epoch = b.epochSrc.Add(1)
	} else {
		b.epoch++
	}
}

// Epoch returns the brick's current ingest epoch.
func (b *Brick) Epoch() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.epoch
}

// Rows returns the number of rows stored.
func (b *Brick) Rows() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rows
}

// Hotness returns the current hotness counter.
func (b *Brick) Hotness() float64 { return math.Float64frombits(b.hotness.Load()) }

// setHotnessLocked stores a new hotness; caller holds b.mu, so read,
// modify and write are not interleaved with another writer's.
func (b *Brick) setHotnessLocked(h float64) { b.hotness.Store(math.Float64bits(h)) }

// Touch adds heat to the brick. Ingest calls it per batch; a query's visit
// adds its heat inside the visit's own hold of the lock.
func (b *Brick) Touch(heat float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.setHotnessLocked(b.Hotness() + heat)
}

// retire detaches a brick that left its store from the decoded-column
// cache: its entry leaves the cache, so the budget stops counting it and
// nothing there pins the brick, and a visit still planned on the brick
// decodes without caching. Taking mu means no visit sits between loading
// the cache and publishing an entry.
func (b *Brick) retire() {
	b.mu.Lock()
	b.dcache = nil
	ent := b.dec.Swap(nil)
	b.mu.Unlock()
	if ent != nil {
		ent.dc.remove(ent)
	}
}

// Decay multiplies the hotness counter by factor in [0,1).
func (b *Brick) Decay(factor float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.setHotnessLocked(b.Hotness() * factor)
}

// IsCompressed reports whether the brick currently holds only a compressed
// (encoded or evicted) representation.
func (b *Brick) IsCompressed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.encoded != nil || b.ssd != nil
}

// UncompressedBytes returns the memory footprint the brick would have if
// fully decompressed — the "decompressed size" Cubrick's second-generation
// load balancing metric reports to SM (§IV-F2).
func (b *Brick) UncompressedBytes(schema Schema) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return int64(b.rows) * schema.RowBytes()
}

// MemoryBytes returns the brick's current resident footprint: zero when
// evicted, blob size when encoded, raw columns otherwise.
func (b *Brick) MemoryBytes(schema Schema) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ssd != nil {
		return 0
	}
	if b.encoded != nil {
		return int64(len(b.encoded))
	}
	return int64(b.rows) * schema.RowBytes()
}

// append adds a row, first restoring the raw columns of a compressed brick
// (ingest heats data) under the same hold of the lock: were the two
// separate, a compaction pass in between would leave an old blob beside
// raw-only rows.
func (b *Brick) append(dims []uint32, metrics []float64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.decompressLocked(); err != nil {
		return err
	}
	for i := range b.dims {
		b.dims[i] = append(b.dims[i], dims[i])
	}
	for i := range b.metrics {
		b.metrics[i] = append(b.metrics[i], metrics[i])
	}
	b.rows++
	b.bumpEpochLocked()
	return nil
}

// appendColumns adds the rows selected by idx from a column-major batch
// (src[col][row]), taking the brick lock once for the decompress-if-cold
// and the whole batch (see append).
func (b *Brick) appendColumns(dimCols [][]uint32, metricCols [][]float64, idx []int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.decompressLocked(); err != nil {
		return err
	}
	for i := range b.dims {
		col := b.dims[i]
		// Grow once for the whole batch, keeping at least doubling so a
		// sequence of batches stays amortized-linear.
		if need := len(col) + len(idx); cap(col) < need {
			if c := 2 * cap(col); c > need {
				need = c
			}
			grown := make([]uint32, len(col), need)
			copy(grown, col)
			col = grown
		}
		src := dimCols[i]
		for _, r := range idx {
			col = append(col, src[r])
		}
		b.dims[i] = col
	}
	for i := range b.metrics {
		col := b.metrics[i]
		if need := len(col) + len(idx); cap(col) < need {
			if c := 2 * cap(col); c > need {
				need = c
			}
			grown := make([]float64, len(col), need)
			copy(grown, col)
			col = grown
		}
		src := metricCols[i]
		for _, r := range idx {
			col = append(col, src[r])
		}
		b.metrics[i] = col
	}
	b.rows += len(idx)
	b.bumpEpochLocked()
	return nil
}

// Compress converts the brick to the encoded tier: every column picks its
// cheapest lightweight encoding and the raw columns are freed. It is a
// no-op on empty or already-compressed bricks.
func (b *Brick) Compress() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.encoded != nil || b.ssd != nil || b.rows == 0 {
		return nil
	}
	before := int64(0)
	for _, col := range b.dims {
		before += int64(4 * len(col))
	}
	for _, col := range b.metrics {
		before += int64(8 * len(col))
	}
	b.encoded = encodeBrickBlob(b.dims, b.metrics, b.rows, b.obs)
	b.obs.add("brick.encode.bytes_before", before)
	b.obs.add("brick.encode.bytes_after", int64(len(b.encoded)))
	for i := range b.dims {
		b.dims[i] = nil
	}
	for i := range b.metrics {
		b.metrics[i] = nil
	}
	return nil
}

// Decompress restores the raw columns from the compressed representation.
func (b *Brick) Decompress() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.decompressLocked()
}

// inflater recycles flate's decoder state (tens of KB per NewReader) across
// evicted-tier reads and shard-transfer imports.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser
}

var inflaterPool = sync.Pool{New: func() any { return new(inflater) }}

// inflate appends the inflated flate stream src to dst through a pooled
// decoder. The decoder goes back to the pool reading nothing, so the pool
// never pins src.
func inflate(dst *bytes.Buffer, src []byte) error {
	in := inflaterPool.Get().(*inflater)
	defer inflaterPool.Put(in)
	defer in.src.Reset(nil)
	in.src.Reset(src)
	if in.fr == nil {
		in.fr = flate.NewReader(&in.src)
	} else if err := in.fr.(flate.Resetter).Reset(&in.src, nil); err != nil {
		return err
	}
	_, err := dst.ReadFrom(in.fr)
	return err
}

// blobLocked returns the brick's encoded blob, inflating the SSD payload
// if evicted. Caller holds b.mu. fromSSD reports whether an inflate
// happened (so callers can reuse the bytes without re-reading).
func (b *Brick) blobLocked(sc *visitScratch) (data []byte, fromSSD bool, err error) {
	if b.encoded != nil {
		return b.encoded, false, nil
	}
	if b.ssd == nil {
		return nil, false, nil
	}
	var buf bytes.Buffer
	if sc != nil && sc.inflate != nil {
		buf = *bytes.NewBuffer(sc.inflate[:0])
	} else if b.encLen > 0 {
		buf.Grow(b.encLen)
	}
	if err := inflate(&buf, b.ssd); err != nil {
		return nil, false, fmt.Errorf("brick: ssd read: %w", err)
	}
	data = buf.Bytes()
	if sc != nil {
		sc.inflate = data
	}
	return data, true, nil
}

func (b *Brick) decompressLocked() error {
	if b.encoded == nil && b.ssd == nil {
		return nil
	}
	data, _, err := b.blobLocked(nil)
	if err != nil {
		return err
	}
	dims, metrics, rows, err := decodeBlobOwned(data, len(b.dims), len(b.metrics), b.rows)
	if err != nil {
		return err
	}
	if rows != b.rows {
		return fmt.Errorf("brick: row count mismatch after decompress: %d != %d", rows, b.rows)
	}
	b.dims = dims
	b.metrics = metrics
	b.encoded = nil
	b.ssd = nil
	b.encLen = 0
	return nil
}

// visit is a query's one hold of the brick lock: it adds the query's heat,
// reports the tier, prunes by the encoded blob's column bounds when prune
// is set (fn is then not called), and otherwise streams the brick's
// columnar batch to fn, decoding only the columns the projection references
// (a nil projection materializes everything). Queries over cold bricks pay
// a transient decode into pooled scratch unless the decoded-column cache
// serves them; the batch and its views are valid only for the call.
func (b *Brick) visit(proj *Projection, prune *Filter, fn func(*Batch) error) (v Visited, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	// Heat accrues for every brick the query touched, pruned or not.
	b.setHotnessLocked(b.Hotness() + 1)
	v.Compressed = b.encoded != nil || b.ssd != nil
	if prune != nil && b.encoded != nil && blobBoundsPrune(b.encoded, b.rows, len(b.dims), prune) {
		v.Pruned = true
		return v, nil
	}
	if b.rows == 0 {
		return v, nil
	}
	sc := visitPool.Get().(*visitScratch)
	defer visitPool.Put(sc)
	if !v.Compressed {
		// The raw batch's header lives in the pooled scratch rather than on
		// the heap, and is cleared after fn so the pool pins no column.
		sc.raw = Batch{Dims: b.dims, Metrics: b.metrics, Rows: b.rows}
		err := fn(&sc.raw)
		sc.raw = Batch{}
		return v, err
	}

	dc := b.dcache.load()
	if dc == nil || (proj != nil && proj.NoCache) {
		batch, err := b.decodeLocked(proj, sc, sc)
		if err != nil {
			return v, err
		}
		v.decoded, v.inflated = true, b.ssd != nil
		return v, fn(batch)
	}

	// Decoded-column cache: the brick's one entry holds a slot per column
	// decoded so far at its epoch, whichever projection asked first. A hit
	// is this check alone — no lookup, no cache lock. An entry of an older
	// epoch (or another cache) leaves its cache and is replaced.
	nDims, nMetrics := len(b.dims), len(b.metrics)
	ent := b.dec.Load()
	fresh := ent == nil || ent.epoch != b.epoch || ent.dc != dc
	if fresh {
		if ent != nil {
			ent.dc.remove(ent)
		}
		ent = newDecodedBrick(b, dc, nDims, nMetrics)
	}
	if miss := ent.missing(proj, sc); miss != nil {
		// Walk the blob for the missing slots only, into buffers the entry
		// will own: pooled scratch would be recycled under it. The inflate
		// buffer is read during the walk and not after, so that one is sc's.
		got, err := b.decodeLocked(miss, sc, &visitScratch{})
		if err != nil {
			return v, err
		}
		ent.adopt(got)
		v.decoded, v.inflated = true, b.ssd != nil
	}
	view := sc.prepare(nDims, nMetrics)
	if grew := ent.view(proj, view); fresh || v.decoded || grew {
		// Publish before pricing, so an eviction the put triggers finds
		// the entry on the brick and clears it.
		b.dec.Store(ent)
		dc.put(ent)
	} else {
		ent.markUsed()
		dc.hit()
	}
	return v, fn(view)
}

// decodeLocked walks the brick's blob once, decoding the columns proj
// references into cols' buffers; an evicted blob is inflated into infl's
// buffer first. Caller holds b.mu.
func (b *Brick) decodeLocked(proj *Projection, infl, cols *visitScratch) (*Batch, error) {
	start := time.Now()
	data, _, err := b.blobLocked(infl)
	if err != nil {
		return nil, err
	}
	batch, err := decodeBlobInto(data, len(b.dims), len(b.metrics), b.rows, proj, cols)
	if err != nil {
		return nil, err
	}
	b.obs.observeDecode(time.Since(start))
	return batch, nil
}
