// Package rollup maintains time-bucketed pre-aggregate tables over a brick
// store, the acceleration layer for dashboard-style coarse time-range
// queries: SUM/COUNT/MIN/MAX per (time bucket, rollup dims) kept exactly,
// plus HyperLogLog sketches for count-distinct over designated dimensions.
//
// Maintenance is incremental and watermark-based. The table records, per
// brick, how many rows it has folded (bricks are append-only with stable
// row order within a store generation); a catch-up pass visits only the
// rows above each mark. Freshness is epoch-exact: the pass reads the store
// epoch E before visiting, and the brick-mutex/atomic ordering guarantees
// every row stamped with an epoch ≤ E is below some mark afterwards. The
// snapshot is therefore valid "as of E" — it may additionally contain some
// rows newer than E, which is why hybrid query plans partition work by the
// row watermarks (rollup serves rows below the marks, a delta scan reads
// rows above them) rather than by epoch.
//
// Brick-replacing imports (shard migration) void the watermarks; the store
// generation counter detects them and forces a full rebuild.
package rollup

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"cubrick/internal/brick"
	"cubrick/internal/hll"
)

// Config designates the time dimension, bucket width and rollup dimensions
// of one pre-aggregate table.
type Config struct {
	// TimeDim names the dimension bucketed by time; its values are bucket
	// indexes (e.g. ds as days) and the rollup groups them into windows of
	// Bucket consecutive values.
	TimeDim string
	// Bucket is the bucket width in TimeDim units (≥ 1). A bucket starting
	// at s covers values [s, s+Bucket-1].
	Bucket uint32
	// Dims are the non-time dimensions the rollup additionally groups by.
	// A query is rollup-eligible only if its GROUP BY is a subset.
	Dims []string
	// DistinctDims lists dimensions maintained as per-group HLL sketches so
	// COUNT(DISTINCT dim) derives from the rollup.
	DistinctDims []string
}

// MetricAgg is the exact per-group accumulator for one metric column.
type MetricAgg struct {
	Sum float64
	Min float64
	Max float64
}

// Group is one rollup group: a time bucket crossed with the configured
// rollup dimension values. Metrics holds one accumulator per schema metric
// (in schema order); Sketches holds one HLL per configured DistinctDim.
type Group struct {
	// Start is the bucket's first TimeDim value; the bucket covers
	// [Start, Start+Bucket-1].
	Start uint32
	// Dims are the values of Config.Dims, in configuration order.
	Dims []uint32
	// Rows is the exact number of rows folded into the group.
	Rows int64
	// Metrics are per-schema-metric exact accumulators.
	Metrics []MetricAgg
	// Sketches are per-DistinctDim HLL sketches.
	Sketches []*hll.Sketch
}

// ServeInfo describes the rollup state a Serve call answered from.
type ServeInfo struct {
	// Epoch is the exact ingest epoch the snapshot covers: every row with
	// an epoch ≤ Epoch is reflected in the served groups.
	Epoch uint64
	// Gen is the store generation the watermarks belong to; callers that
	// scan a delta against Marks must confirm the generation is unchanged
	// afterwards.
	Gen uint64
	// Marks is a copy of the per-brick row watermarks at serve time: the
	// served groups cover exactly rows [0, Marks[id]) of each brick.
	Marks map[uint64]int
	// Groups is how many rollup groups matched the serve window.
	Groups int
}

// Stats are cumulative maintenance counters.
type Stats struct {
	// Catchups counts catch-up passes (including no-op passes).
	Catchups int64
	// FoldedRows counts rows folded into the rollup since creation.
	FoldedRows int64
	// Rebuilds counts full resets forced by store generation changes.
	Rebuilds int64
	// Groups is the current group count.
	Groups int
}

// Table is one maintained rollup. All methods are safe for concurrent use.
type Table struct {
	cfg      Config
	schema   brick.Schema
	timeIdx  int
	dimIdx   []int
	distIdx  []int
	nMetrics int

	mu     sync.Mutex
	groups map[string]*Group
	marks  map[uint64]int
	epoch  uint64 // covered epoch of the last catch-up
	gen    uint64 // store generation the marks belong to
	genSet bool

	catchups   int64
	foldedRows int64
	rebuilds   int64
}

// New validates cfg against the schema and returns an empty table.
func New(schema brick.Schema, cfg Config) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if cfg.Bucket == 0 {
		return nil, fmt.Errorf("rollup: bucket width must be ≥ 1")
	}
	t := &Table{
		cfg:      cfg,
		schema:   schema,
		nMetrics: len(schema.Metrics),
		groups:   make(map[string]*Group),
		marks:    make(map[uint64]int),
	}
	t.timeIdx = schema.DimIndex(cfg.TimeDim)
	if t.timeIdx < 0 {
		return nil, fmt.Errorf("rollup: time dimension %q not in schema", cfg.TimeDim)
	}
	seen := map[string]bool{cfg.TimeDim: true}
	for _, d := range cfg.Dims {
		if seen[d] {
			return nil, fmt.Errorf("rollup: duplicate rollup dimension %q", d)
		}
		seen[d] = true
		di := schema.DimIndex(d)
		if di < 0 {
			return nil, fmt.Errorf("rollup: rollup dimension %q not in schema", d)
		}
		t.dimIdx = append(t.dimIdx, di)
	}
	dseen := make(map[string]bool)
	for _, d := range cfg.DistinctDims {
		if dseen[d] {
			return nil, fmt.Errorf("rollup: duplicate distinct dimension %q", d)
		}
		dseen[d] = true
		di := schema.DimIndex(d)
		if di < 0 {
			return nil, fmt.Errorf("rollup: distinct dimension %q not in schema", d)
		}
		t.distIdx = append(t.distIdx, di)
	}
	return t, nil
}

// Config returns the table's configuration.
func (t *Table) Config() Config { return t.cfg }

// Schema returns the schema the table was built for.
func (t *Table) Schema() brick.Schema { return t.schema }

// BucketStart returns the first TimeDim value of v's bucket.
func (t *Table) BucketStart(v uint32) uint32 {
	return v - v%t.cfg.Bucket
}

// CoveredEpoch returns the epoch the table's last catch-up covered.
func (t *Table) CoveredEpoch() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

// Stats returns cumulative maintenance counters.
func (t *Table) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{
		Catchups:   t.catchups,
		FoldedRows: t.foldedRows,
		Rebuilds:   t.rebuilds,
		Groups:     len(t.groups),
	}
}

// key serializes (bucket start, dim values) into the group map key:
// little-endian u32s, bucket start first.
func key(start uint32, dims []uint32) string {
	buf := make([]byte, 4*(1+len(dims)))
	buf[0] = byte(start)
	buf[1] = byte(start >> 8)
	buf[2] = byte(start >> 16)
	buf[3] = byte(start >> 24)
	for i, v := range dims {
		o := 4 * (i + 1)
		buf[o] = byte(v)
		buf[o+1] = byte(v >> 8)
		buf[o+2] = byte(v >> 16)
		buf[o+3] = byte(v >> 24)
	}
	return string(buf)
}

func (t *Table) resetLocked() {
	if len(t.groups) > 0 || len(t.marks) > 0 {
		t.rebuilds++
	}
	t.groups = make(map[string]*Group)
	t.marks = make(map[uint64]int)
	t.epoch = 0
}

// foldLocked folds rows [start, rows) of one brick batch into the groups.
func (t *Table) foldLocked(dims [][]uint32, metrics [][]float64, start, rows int) {
	keyVals := make([]uint32, len(t.dimIdx))
	timeCol := dims[t.timeIdx]
	for r := start; r < rows; r++ {
		bs := t.BucketStart(timeCol[r])
		for i, di := range t.dimIdx {
			keyVals[i] = dims[di][r]
		}
		k := key(bs, keyVals)
		g, ok := t.groups[k]
		if !ok {
			g = &Group{
				Start:    bs,
				Dims:     append([]uint32(nil), keyVals...),
				Metrics:  make([]MetricAgg, t.nMetrics),
				Sketches: make([]*hll.Sketch, len(t.distIdx)),
			}
			for i := range g.Metrics {
				g.Metrics[i] = MetricAgg{Min: inf, Max: -inf}
			}
			for i := range g.Sketches {
				g.Sketches[i] = hll.New()
			}
			t.groups[k] = g
		}
		g.Rows++
		for m := 0; m < t.nMetrics; m++ {
			v := metrics[m][r]
			agg := &g.Metrics[m]
			agg.Sum += v
			if v < agg.Min {
				agg.Min = v
			}
			if v > agg.Max {
				agg.Max = v
			}
		}
		for i, di := range t.distIdx {
			g.Sketches[i].Add(hll.Hash64(uint64(dims[di][r])))
		}
	}
	t.foldedRows += int64(rows - start)
}

const maxCatchupAttempts = 4

// catchUpLocked folds every un-folded row, handling generation changes by
// rebuilding from scratch. Caller holds t.mu. Returns the covered epoch.
func (t *Table) catchUpLocked(st *brick.Store) (uint64, error) {
	for attempt := 0; attempt < maxCatchupAttempts; attempt++ {
		// genSet=false means the current marks are not known to describe
		// this store (fresh table, or a mid-visit import) — start from
		// scratch. A no-op on empty tables.
		if g := st.Generation(); !t.genSet || g != t.gen {
			t.resetLocked()
			t.gen, t.genSet = g, true
		}
		epoch, err := st.VisitSince(t.marks, func(_ uint64, dims [][]uint32, metrics [][]float64, start, rows int) error {
			t.foldLocked(dims, metrics, start, rows)
			return nil
		})
		if err == brick.ErrGenerationChanged {
			// The fold above may have mixed old- and new-generation rows;
			// everything restarts from a clean slate.
			t.resetLocked()
			t.genSet = false
			continue
		}
		if err != nil {
			return 0, err
		}
		t.catchups++
		if epoch > t.epoch {
			t.epoch = epoch
		}
		return t.epoch, nil
	}
	return 0, brick.ErrGenerationChanged
}

// CatchUp folds every row ingested since the previous catch-up and returns
// the covered epoch. Attach it to brick.Store.SetIngestObserver so the
// rollup chases ingest; queries additionally call Serve, which catches up
// under the same lock, so freshness never depends on the observer firing.
func (t *Table) CatchUp(st *brick.Store) (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.catchUpLocked(st)
}

// Serve catches the table up and then streams, in deterministic sorted key
// order, every group whose bucket start lies in [loStart, hiStart]
// (inclusive). Callers compute the covered start range from their time
// predicate; selecting on starts rather than bucket ends keeps the
// domain-edge bucket (whose nominal end may exceed the dimension's Max)
// addressable without overflow. The catch-up and the iteration happen
// under one lock hold, so the returned ServeInfo's Marks describe exactly
// the rows the streamed groups cover — the contract hybrid scans rely on
// to read the remaining rows without double counting.
func (t *Table) Serve(st *brick.Store, loStart, hiStart uint32, fn func(*Group) error) (ServeInfo, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	epoch, err := t.catchUpLocked(st)
	if err != nil {
		return ServeInfo{}, err
	}
	info := ServeInfo{Epoch: epoch, Gen: t.gen, Marks: make(map[uint64]int, len(t.marks))}
	for id, m := range t.marks {
		info.Marks[id] = m
	}
	keys := make([]string, 0, len(t.groups))
	for k, g := range t.groups {
		if g.Start < loStart || g.Start > hiStart {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	info.Groups = len(keys)
	for _, k := range keys {
		if err := fn(t.groups[k]); err != nil {
			return ServeInfo{}, err
		}
	}
	return info, nil
}

// Visit streams every group in sorted key order (diagnostics and tests).
func (t *Table) Visit(fn func(*Group) error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]string, 0, len(t.groups))
	for k := range t.groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := fn(t.groups[k]); err != nil {
			return err
		}
	}
	return nil
}

var inf = math.Inf(1)
