package brick

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"cubrick/internal/metrics"
)

// Filter restricts a scan to rows whose dimension values fall within the
// given inclusive ranges. A nil entry (or missing dimension) means
// unfiltered. Filters on bucket-aligned ranges enable whole-brick pruning.
type Filter struct {
	// Ranges maps dimension index -> [lo, hi] inclusive bounds.
	Ranges map[int][2]uint32
}

// Matches reports whether a row passes the filter.
func (f *Filter) Matches(dims []uint32) bool {
	if f == nil {
		return true
	}
	for i, r := range f.Ranges {
		v := dims[i]
		if v < r[0] || v > r[1] {
			return false
		}
	}
	return true
}

// MatchesAt reports whether row r of a columnar batch passes the filter,
// without materializing the row.
func (f *Filter) MatchesAt(dims [][]uint32, r int) bool {
	if f == nil {
		return true
	}
	for i, rng := range f.Ranges {
		v := dims[i][r]
		if v < rng[0] || v > rng[1] {
			return false
		}
	}
	return true
}

// dimRange is one filtered dimension, flattened out of Filter.Ranges.
type dimRange struct {
	dim    int
	lo, hi uint32
}

// flat appends the filter's ranges to buf, so a walk over many bricks
// iterates the map once instead of once per brick.
func (f *Filter) flat(buf []dimRange) []dimRange {
	if f != nil {
		for d, r := range f.Ranges {
			buf = append(buf, dimRange{d, r[0], r[1]})
		}
	}
	return buf
}

// classify reports whether a brick's bounds intersect every range (if not,
// the brick is pruned) and whether every range fully contains them, in
// which case per-row checks can be skipped.
func classify(ranges []dimRange, bounds [][2]uint32) (overlaps, covers bool) {
	covers = true
	for _, r := range ranges {
		b := bounds[r.dim]
		if r.hi < b[0] || r.lo > b[1] {
			return false, false
		}
		if r.lo > b[0] || r.hi < b[1] {
			covers = false
		}
	}
	return true, covers
}

// Store holds the bricks of one table partition on one server.
// It is safe for concurrent use.
type Store struct {
	schema Schema

	mu     sync.Mutex
	bricks map[uint64]*Brick
	rows   int64
	// sorted is the id-ordered view of bricks with each brick's bounds
	// precomputed, replaced copy-on-write (under mu) whenever the brick set
	// changes, so scans walk it without locking, sorting or allocating.
	sorted atomic.Pointer[[]brickEntry]

	// decompressions counts transient decode work done by scans over
	// compressed bricks — the cost adaptive compression tries to avoid
	// for hot data (§IV-F2).
	decompressions atomic.Int64
	// ssdReads counts scans that had to fetch an evicted brick from the
	// SSD tier (§IV-F3).
	ssdReads atomic.Int64

	// obs fans encode/decode events from this store's bricks into an
	// optional metrics registry (see SetMetricsRegistry); shared by every
	// brick so late registry attachment reaches existing bricks.
	obs *storeObs

	// epoch is the store-wide monotonic ingest counter. Every row append
	// draws the owning brick's new epoch from it inside the brick's own
	// append critical section, so the store-level value is a cheap upper
	// summary: if Epoch() is unchanged, no brick changed. Import bumps it
	// too (fresh brick generation). Tier moves never touch it.
	epoch atomic.Uint64

	// dcache holds the optional decoded-column cache, shared with every
	// brick so late attachment reaches existing bricks.
	dcache dcacheRef
}

// NewStore creates an empty store for the schema.
func NewStore(schema Schema) (*Store, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	return &Store{schema: schema, bricks: make(map[uint64]*Brick), obs: &storeObs{}}, nil
}

// SetMetricsRegistry routes the store's encode/decode instrumentation
// (brick.encode.* counters, brick.decode.latency histogram) into reg. A
// nil registry detaches. Safe to call at any time, including concurrently
// with scans.
func (s *Store) SetMetricsRegistry(reg *metrics.Registry) {
	s.obs.reg.Store(reg)
}

// Schema returns the store's schema.
func (s *Store) Schema() Schema { return s.schema }

// Epoch returns the store-level ingest epoch summary: the highest epoch
// any brick has been stamped with. Two Epoch() reads with equal values
// bracket a window in which no row was ingested, which is exactly the
// validity condition result caches check. Reading it before executing a
// query yields a conservative tag: any ingest that lands mid-scan bumps
// the counter past the tag, so a result cached under the tag can never
// hide rows it did not see.
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// SetDecodedCache attaches (or, with nil, detaches) a decoded-column
// cache: scans over compressed bricks consult it before paying the column
// decode, and pin their decode for the next scan. The cache may be shared
// by several stores — each entry lives on its brick. Safe to call at any
// time, including concurrently with scans.
func (s *Store) SetDecodedCache(dc *DecodedCache) {
	s.dcache.store(dc)
}

// Retire detaches a store that is no longer served from its decoded-column
// cache: every brick's entry leaves the cache, and a scan still running
// over the store decodes without caching.
func (s *Store) Retire() {
	s.dcache.store(nil)
	for _, e := range s.snapshotBricks() {
		e.b.retire()
	}
}

// Rows returns the total number of stored rows.
func (s *Store) Rows() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rows
}

// BrickCount returns the number of materialized bricks.
func (s *Store) BrickCount() int { return len(s.snapshotBricks()) }

// Insert adds one row. The row's dimension values determine its brick in
// O(1); if the brick is compressed it is decompressed first (ingest heats
// data).
func (s *Store) Insert(dims []uint32, metrics []float64) error {
	if len(metrics) != len(s.schema.Metrics) {
		return fmt.Errorf("brick: row has %d metrics, schema has %d", len(metrics), len(s.schema.Metrics))
	}
	id, err := s.schema.BrickID(dims)
	if err != nil {
		return err
	}
	s.mu.Lock()
	b, ok := s.bricks[id]
	if !ok {
		b = s.newBrick()
		s.bricks[id] = b
		s.publishLocked(s.snapshotBricks(), []uint64{id})
	}
	s.rows++
	s.mu.Unlock()

	if err := b.append(dims, metrics); err != nil {
		return err
	}
	b.Touch(1)
	return nil
}

// InsertBatch ingests a column-major batch (dimCols[d][r], metricCols[m][r])
// in one pass: rows are routed to their bricks up front, the store lock is
// taken once to resolve/create every target brick and bump the row count,
// and each brick absorbs its rows under a single brick lock. This replaces
// per-row Insert locking on the bulk-ingest path.
//
// The whole batch is validated (arity, column lengths, dimension domains)
// before any row is written, so a bad batch is rejected atomically — unlike
// a per-row Insert loop, which leaves a prefix behind.
func (s *Store) InsertBatch(dimCols [][]uint32, metricCols [][]float64) error {
	if len(dimCols) != len(s.schema.Dimensions) {
		return fmt.Errorf("brick: batch has %d dim columns, schema has %d", len(dimCols), len(s.schema.Dimensions))
	}
	if len(metricCols) != len(s.schema.Metrics) {
		return fmt.Errorf("brick: batch has %d metric columns, schema has %d", len(metricCols), len(s.schema.Metrics))
	}
	rows := 0
	if len(dimCols) > 0 {
		rows = len(dimCols[0])
	}
	for _, col := range dimCols {
		if len(col) != rows {
			return fmt.Errorf("brick: ragged batch: dim column has %d rows, want %d", len(col), rows)
		}
	}
	for _, col := range metricCols {
		if len(col) != rows {
			return fmt.Errorf("brick: ragged batch: metric column has %d rows, want %d", len(col), rows)
		}
	}
	if rows == 0 {
		return nil
	}

	// Route every row to its brick; BrickID also validates domains, so the
	// routing pass doubles as whole-batch validation before any mutation.
	byBrick := make(map[uint64][]int)
	rowScratch := make([]uint32, len(dimCols))
	for r := 0; r < rows; r++ {
		for d := range dimCols {
			rowScratch[d] = dimCols[d][r]
		}
		id, err := s.schema.BrickID(rowScratch)
		if err != nil {
			// Name the offending row: batch callers (HTTP ingest) surface
			// this to clients who need to know which row to fix.
			return fmt.Errorf("row %d: %w", r, err)
		}
		byBrick[id] = append(byBrick[id], r)
	}

	type target struct {
		b   *Brick
		idx []int
	}
	targets := make([]target, 0, len(byBrick))
	var created []uint64
	s.mu.Lock()
	for id, idx := range byBrick {
		b, ok := s.bricks[id]
		if !ok {
			b = s.newBrick()
			s.bricks[id] = b
			created = append(created, id)
		}
		targets = append(targets, target{b, idx})
	}
	if len(created) > 0 {
		s.publishLocked(s.snapshotBricks(), created)
	}
	s.rows += int64(rows)
	s.mu.Unlock()

	for _, t := range targets {
		if err := t.b.appendColumns(dimCols, metricCols, t.idx); err != nil {
			return err
		}
		t.b.Touch(float64(len(t.idx))) // ingest heats data, one unit per row
	}
	return nil
}

// brickEntry is one brick in the store's id-sorted snapshot.
type brickEntry struct {
	id     uint64
	b      *Brick
	bounds [][2]uint32
}

// newBrick returns an empty brick wired to the store's observer, epoch
// source and decoded cache.
func (s *Store) newBrick() *Brick {
	b := newBrick(len(s.schema.Dimensions), len(s.schema.Metrics))
	b.obs = s.obs
	b.epochSrc = &s.epoch
	b.dcache = &s.dcache
	return b
}

// publishLocked replaces the sorted snapshot with old updated from
// s.bricks for the given ids (new ids are merged in, present ids take the
// map's current brick; an id may repeat). The ids come from BrickID or a
// validated import, so BrickBounds cannot fail. Caller holds s.mu.
func (s *Store) publishLocked(old []brickEntry, ids []uint64) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]brickEntry, 0, len(old)+len(ids))
	for _, id := range ids {
		if n := len(out); n > 0 && out[n-1].id == id {
			continue
		}
		for len(old) > 0 && old[0].id < id {
			out, old = append(out, old[0]), old[1:]
		}
		if len(old) > 0 && old[0].id == id {
			old = old[1:]
		}
		bounds, _ := s.schema.BrickBounds(id)
		out = append(out, brickEntry{id: id, b: s.bricks[id], bounds: bounds})
	}
	out = append(out, old...)
	s.sorted.Store(&out)
}

// snapshotBricks returns the id-sorted view of the store's bricks. The
// slice is shared: callers must not modify it.
func (s *Store) snapshotBricks() []brickEntry {
	if p := s.sorted.Load(); p != nil {
		return *p
	}
	return nil
}

// ScanTask is one brick's worth of scan work — the morsel unit of
// parallel query execution. Tasks over distinct bricks are independent
// and safe to run concurrently; heat and decompression accounting happen
// when the task is visited, exactly as under Store.Scan.
type ScanTask struct {
	store *Store
	brick *Brick
	// BrickID identifies the brick within the partitioned space.
	BrickID uint64
	// Bounds are the brick's inclusive per-dimension value ranges; every
	// row in the brick falls inside them, which lets kernels size dense
	// per-brick accumulators.
	Bounds [][2]uint32
	// Full reports that the scan filter fully covers the brick's bounds,
	// so per-row filter checks can be skipped.
	Full bool
}

// Visit streams the brick's fully materialized columnar batch to fn,
// adding heat and counting decompressions/SSD reads on the store. The
// column slices are valid only for the duration of the call.
func (t *ScanTask) Visit(fn func(dims [][]uint32, metrics [][]float64, rows int) error) error {
	_, err := t.VisitBatch(nil, nil, func(b *Batch) error {
		return fn(b.Dims, b.Metrics, b.Rows)
	})
	return err
}

// Visited is what one ScanTask.VisitBatch found under the brick lock.
type Visited struct {
	// Compressed reports that the brick was in the encoded or evicted tier.
	Compressed bool
	// Pruned reports that the encoded blob's column bounds (FOR base and
	// width, dictionary min/max) proved the prune filter matches no row, so
	// the callback was not called.
	Pruned bool

	// decoded reports that the blob was walked (never on raw bricks, nor on
	// visits the decoded cache served whole), inflated that it had to be
	// read from the SSD tier first.
	decoded, inflated bool
}

// VisitBatch is the brick's one visit per query, under one hold of its
// lock. It adds heat, and when prune is set and the brick's encoded blob
// proves from its column stats, without decoding, that prune matches no
// row, it is done (Visited.Pruned; raw and evicted bricks have no resident
// blob to inspect for free, so they are never pruned this way). Otherwise
// it streams the brick's columnar batch to fn, decoding only the columns
// the projection references (nil materializes everything) into pooled
// scratch buffers unless the decoded-column cache serves them. The batch
// and its views are valid only for the duration of the call.
// Decompression / SSD-read accounting counts only visits that actually
// paid a decode, so decoded-cache hits do not inflate the cost counters.
func (t *ScanTask) VisitBatch(proj *Projection, prune *Filter, fn func(*Batch) error) (Visited, error) {
	v, err := t.brick.visit(proj, prune, fn)
	if v.decoded {
		t.store.decompressions.Add(1)
		if v.inflated {
			t.store.ssdReads.Add(1)
		}
	}
	return v, err
}

// PlanScan prunes bricks whose bounds do not intersect the filter (the
// index-free pruning Granular Partitioning provides) off the store's sorted
// snapshot, appends one task per surviving brick to dst in ascending
// brick-id order, and returns the grown slice and how many bricks were
// pruned. Callers may execute the tasks in any order, including
// concurrently; one that keeps dst across calls plans without allocating.
// Task bounds alias the snapshot and are read-only.
func (s *Store) PlanScan(dst []ScanTask, f *Filter) (tasks []ScanTask, pruned int) {
	var buf [8]dimRange
	ranges := f.flat(buf[:0])
	for _, e := range s.snapshotBricks() {
		overlaps, covers := classify(ranges, e.bounds)
		if !overlaps {
			pruned++
			continue
		}
		dst = append(dst, ScanTask{
			store:   s,
			brick:   e.b,
			BrickID: e.id,
			Bounds:  e.bounds,
			Full:    covers,
		})
	}
	return dst, pruned
}

// Scan streams matching rows to visit. Bricks whose bounds do not
// intersect the filter are pruned without being touched (the index-free
// pruning Granular Partitioning provides); visited bricks gain heat.
func (s *Store) Scan(f *Filter, visit func(dims []uint32, metrics []float64) error) error {
	tasks, _ := s.PlanScan(nil, f)
	rowDims := make([]uint32, len(s.schema.Dimensions))
	rowMetrics := make([]float64, len(s.schema.Metrics))
	for i := range tasks {
		t := &tasks[i]
		err := t.Visit(func(dims [][]uint32, metrics [][]float64, rows int) error {
			for r := 0; r < rows; r++ {
				if !t.Full && !f.MatchesAt(dims, r) {
					continue
				}
				for i := range rowDims {
					rowDims[i] = dims[i][r]
				}
				for i := range rowMetrics {
					rowMetrics[i] = metrics[i][r]
				}
				if err := visit(rowDims, rowMetrics); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Decompressions returns how many scans had to transiently decode a
// compressed brick.
func (s *Store) Decompressions() int64 { return s.decompressions.Load() }

// MemoryBytes returns the store's resident footprint (compressed bricks at
// compressed size).
func (s *Store) MemoryBytes() int64 {
	var sum int64
	for _, e := range s.snapshotBricks() {
		sum += e.b.MemoryBytes(s.schema)
	}
	return sum
}

// UncompressedBytes returns the footprint if everything were decompressed —
// Cubrick's gen-2 load-balancing metric (§IV-F2).
func (s *Store) UncompressedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rows * s.schema.RowBytes()
}

// CompressedBrickCount returns how many bricks are currently compressed.
func (s *Store) CompressedBrickCount() int {
	n := 0
	for _, e := range s.snapshotBricks() {
		if e.b.IsCompressed() {
			n++
		}
	}
	return n
}

// DecayHotness multiplies every brick's hotness by factor; the memory
// monitor calls it periodically so unused bricks cool down (§IV-F2).
func (s *Store) DecayHotness(factor float64) {
	for _, e := range s.snapshotBricks() {
		e.b.Decay(factor)
	}
}

// HotnessSnapshot returns each brick's (hotness, compressed) pair, for the
// hot/cold distribution of Fig 4e.
func (s *Store) HotnessSnapshot() []BrickHeat {
	entries := s.snapshotBricks()
	out := make([]BrickHeat, 0, len(entries))
	for _, e := range entries {
		out = append(out, BrickHeat{
			BrickID:    e.id,
			Hotness:    e.b.Hotness(),
			Compressed: e.b.IsCompressed(),
			Evicted:    e.b.IsEvicted(),
			Rows:       e.b.Rows(),
		})
	}
	return out
}

// BrickHeat is one brick's heat sample.
type BrickHeat struct {
	BrickID    uint64
	Hotness    float64
	Compressed bool
	Evicted    bool
	Rows       int
}

// EnsureBudget is the memory monitor (§IV-F2): while the resident
// footprint exceeds budget it compresses bricks coldest-first; if there is
// surplus (footprint below lowWater × budget) it decompresses bricks
// hottest-first until the surplus is consumed. It returns how many bricks
// were (de)compressed.
func (s *Store) EnsureBudget(budget int64, lowWater float64) (compressed, decompressed int, err error) {
	entries := s.snapshotBricks()
	type heatEntry struct {
		b    *Brick
		heat float64
	}
	var cold, hot []heatEntry
	for _, e := range entries {
		he := heatEntry{e.b, e.b.Hotness()}
		if e.b.IsCompressed() {
			hot = append(hot, he)
		} else {
			cold = append(cold, he)
		}
	}
	// Coldest first for compression.
	sort.Slice(cold, func(i, j int) bool { return cold[i].heat < cold[j].heat })
	// Hottest first for decompression.
	sort.Slice(hot, func(i, j int) bool { return hot[i].heat > hot[j].heat })

	mem := s.MemoryBytes()
	for _, he := range cold {
		if mem <= budget {
			break
		}
		before := he.b.MemoryBytes(s.schema)
		if err := he.b.Compress(); err != nil {
			return compressed, decompressed, err
		}
		mem += he.b.MemoryBytes(s.schema) - before
		compressed++
	}
	if compressed > 0 {
		return compressed, decompressed, nil
	}
	low := int64(lowWater * float64(budget))
	for _, he := range hot {
		grow := he.b.UncompressedBytes(s.schema) - he.b.MemoryBytes(s.schema)
		if mem+grow > low {
			continue
		}
		if err := he.b.Decompress(); err != nil {
			return compressed, decompressed, err
		}
		mem += grow
		decompressed++
	}
	return compressed, decompressed, nil
}
