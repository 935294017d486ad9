package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"cubrick/internal/brick"
	"cubrick/internal/randutil"
	"cubrick/internal/rollup"
)

// The realtime property harness: across random trials of schema × rollup
// configuration × ingest interleaving × compaction tier × query shape, the
// rollup hybrid (rollup groups + delta scan + edge scans) must be
// bit-identical to a raw brick pass.
//
// Metric values are integers, so SUM is exact in any fold order and
// bit-identical is a meaningful demand (see DESIGN.md §6l for the float
// caveat). Scan counters legitimately differ between the paths (that is
// the point), so comparisons use rowsEqual.

// realtimeTrial is one random scenario: a schema whose dimension 0 is the
// time dimension, a rollup config over the remaining dimensions, a store
// and its rollup table.
type realtimeTrial struct {
	schema brick.Schema
	cfg    rollup.Config
	store  *brick.Store
	table  *rollup.Table
}

func newRealtimeTrial(t *testing.T, rnd *randutil.Source) *realtimeTrial {
	t.Helper()
	tr := &realtimeTrial{}
	nDims := 2 + rnd.Intn(3) // time dim + 1..3 others
	tr.schema.Dimensions = append(tr.schema.Dimensions, brick.Dimension{
		Name: "ds", Max: uint32(24 + rnd.Intn(90)), Buckets: uint32(1 + rnd.Intn(3)),
	})
	for d := 1; d < nDims; d++ {
		tr.schema.Dimensions = append(tr.schema.Dimensions, brick.Dimension{
			Name: fmt.Sprintf("d%d", d), Max: uint32(4 + rnd.Intn(30)), Buckets: uint32(1 + rnd.Intn(3)),
		})
	}
	nMetrics := 1 + rnd.Intn(2)
	for m := 0; m < nMetrics; m++ {
		tr.schema.Metrics = append(tr.schema.Metrics, brick.Metric{Name: fmt.Sprintf("m%d", m)})
	}
	tr.cfg = rollup.Config{TimeDim: "ds", Bucket: uint32(1 + rnd.Intn(7))}
	for d := 1; d < nDims; d++ {
		tr.cfg.Dims = append(tr.cfg.Dims, tr.schema.Dimensions[d].Name)
	}
	for d := 0; d < nDims; d++ {
		if rnd.Bernoulli(0.4) {
			tr.cfg.DistinctDims = append(tr.cfg.DistinctDims, tr.schema.Dimensions[d].Name)
		}
	}
	var err error
	if tr.store, err = brick.NewStore(tr.schema); err != nil {
		t.Fatal(err)
	}
	if tr.table, err = rollup.New(tr.schema, tr.cfg); err != nil {
		t.Fatal(err)
	}
	return tr
}

// ingest inserts n random rows. Metric values are small integers so every
// aggregate is fold-order independent.
func (tr *realtimeTrial) ingest(t *testing.T, rnd *randutil.Source, n int) {
	t.Helper()
	dims := make([]uint32, len(tr.schema.Dimensions))
	mets := make([]float64, len(tr.schema.Metrics))
	for r := 0; r < n; r++ {
		for d := range dims {
			max := int(tr.schema.Dimensions[d].Max)
			if d == 0 && rnd.Bernoulli(0.5) {
				// Half the time-values cluster in a narrow band so bucket
				// boundaries see real traffic on both sides.
				dims[d] = uint32(rnd.Intn(max/3 + 1))
			} else {
				dims[d] = uint32(rnd.Intn(max))
			}
		}
		for m := range mets {
			mets[m] = float64(rnd.Intn(1000))
		}
		if err := tr.store.Insert(dims, mets); err != nil {
			t.Fatal(err)
		}
	}
}

func (tr *realtimeTrial) compact(t *testing.T, rnd *randutil.Source) {
	t.Helper()
	if rnd.Bernoulli(0.5) {
		return
	}
	tr.store.DecayHotness(rnd.Float64())
	if _, err := tr.store.CompactOnce(brick.CompactionConfig{
		EncodeBelow: rnd.Float64() * 20,
		EvictBelow:  rnd.Float64() * 10,
	}); err != nil {
		t.Fatal(err)
	}
}

// rollupQuery builds a random rollup-eligible query: GROUP BY ⊆ rollup
// dims, integer aggregates, a time window that usually covers whole
// buckets, sometimes a dim filter.
func (tr *realtimeTrial) rollupQuery(rnd *randutil.Source) *Query {
	q := &Query{Aggregates: []Aggregate{{Func: Sum, Metric: "m0"}, {Func: Count}}}
	if rnd.Bernoulli(0.6) {
		q.Aggregates = append(q.Aggregates,
			Aggregate{Func: Min, Metric: "m0"}, Aggregate{Func: Max, Metric: "m0"},
			Aggregate{Func: Avg, Metric: "m0"})
	}
	if len(tr.cfg.DistinctDims) > 0 && rnd.Bernoulli(0.6) {
		q.Aggregates = append(q.Aggregates, Aggregate{
			Func: CountDistinct, Metric: tr.cfg.DistinctDims[rnd.Intn(len(tr.cfg.DistinctDims))],
		})
	}
	for _, d := range rnd.Perm(len(tr.cfg.Dims))[:rnd.Intn(len(tr.cfg.Dims)+1)] {
		q.GroupBy = append(q.GroupBy, tr.cfg.Dims[d])
	}
	if tr.cfg.Bucket == 1 && rnd.Bernoulli(0.3) {
		q.GroupBy = append(q.GroupBy, "ds")
	}
	max := tr.schema.Dimensions[0].Max
	if rnd.Bernoulli(0.8) {
		lo := uint32(rnd.Intn(int(max)))
		hi := lo + uint32(rnd.Intn(int(max-lo)))
		if rnd.Bernoulli(0.3) {
			// Bucket-aligned window: the pure rollup path, no edge scans.
			lo -= lo % tr.cfg.Bucket
			hi = hi - hi%tr.cfg.Bucket + tr.cfg.Bucket - 1
			if hi > max-1 {
				hi = max - 1
			}
		}
		q.Filter = map[string][2]uint32{"ds": {lo, hi}}
	}
	if rnd.Bernoulli(0.3) {
		d := tr.cfg.Dims[rnd.Intn(len(tr.cfg.Dims))]
		dmax := tr.schema.Dimensions[tr.schema.DimIndex(d)].Max
		lo := uint32(rnd.Intn(int(dmax)))
		if q.Filter == nil {
			q.Filter = map[string][2]uint32{}
		}
		q.Filter[d] = [2]uint32{lo, lo + uint32(rnd.Intn(int(dmax-lo)))}
	}
	return q
}

// checkRollup compares the hybrid rollup answer against the full-scan
// reference. Returns whether the query was rollup-served.
func (tr *realtimeTrial) checkRollup(t *testing.T, rnd *randutil.Source, trial int) bool {
	t.Helper()
	st, tbl := tr.store, tr.table
	q := tr.rollupQuery(rnd)
	p, info, ok, err := ExecuteRollup(context.Background(), st, tbl, q)
	if err != nil {
		t.Fatalf("trial %d ExecuteRollup: %v", trial, err)
	}
	ref, _, err := runUnshared(st, q, 0, Opts{})
	if err != nil {
		t.Fatalf("trial %d reference: %v", trial, err)
	}
	if !ok {
		return false
	}
	if !info.Hit {
		t.Fatalf("trial %d: ok without Hit", trial)
	}
	if err := rowsEqual(ref.Finalize(), p.Finalize()); err != nil {
		t.Fatalf("trial %d rollup vs reference (q=%+v, info=%+v): %v", trial, q, info, err)
	}
	if info.EdgeScans > 0 {
		// The ragged-edge scans are brick passes under the caller's context.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, _, err := ExecuteRollup(ctx, st, tbl, q); !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d: cancelled rollup with %d edge scans returned %v", trial, info.EdgeScans, err)
		}
	}
	return true
}

// TestRealtimeEquivalence is the pinning harness for the rollup path: 40
// random trials, each interleaving ingest, rollup catch-up, compaction and
// a brick-replacing self-import (generation bump), then checking the
// rollup hybrid against a full scan.
func TestRealtimeEquivalence(t *testing.T) {
	rnd := randutil.New(0x701CAFE)
	rollupHits := 0
	for trial := 0; trial < 40; trial++ {
		tr := newRealtimeTrial(t, rnd)
		tr.ingest(t, rnd, 300+rnd.Intn(900))
		// Catch the rollup up mid-stream so watermarks sit strictly inside
		// bricks, then keep ingesting: the freshest rows are covered only by
		// the delta scan, which is exactly the freshness guarantee under test.
		if _, err := tr.table.CatchUp(tr.store); err != nil {
			t.Fatalf("trial %d catch-up: %v", trial, err)
		}
		tr.compact(t, rnd)
		tr.ingest(t, rnd, 100+rnd.Intn(400))
		if rnd.Bernoulli(0.25) {
			// Brick-replacing self-import: voids watermarks, bumps the store
			// generation; the rollup must rebuild, not double-count.
			blob, err := tr.store.Export()
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := brick.NewStore(tr.schema)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Import(blob); err != nil {
				t.Fatal(err)
			}
			tr.store = fresh
		}
		tr.ingest(t, rnd, 50+rnd.Intn(200))
		if tr.checkRollup(t, rnd, trial) {
			rollupHits++
		}
	}
	// The harness must actually exercise the interesting paths, not skip
	// its way to green.
	if rollupHits < 20 {
		t.Fatalf("only %d/40 trials were rollup-served", rollupHits)
	}
}
