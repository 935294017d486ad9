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
// two new answer paths must be bit-identical to the full-scan reference —
//
//	rollup hybrid (rollup groups + delta scan + edge scans) ≡ raw brick pass
//	distributed top-k pushdown (prune/threshold/certify/phase-2) ≡ merged
//	    full partials
//
// Metric values are integers, so SUM is exact in any fold order and
// bit-identical is a meaningful demand (see DESIGN.md §6l for the float
// caveat). Scan counters legitimately differ between the paths (that is
// the point), so comparisons use rowsEqual.

// realtimeTrial is one random scenario shared by the rollup and top-k
// checks: a schema whose dimension 0 is the time dimension, a rollup
// config over the remaining dimensions, and rows partitioned across
// 1–3 worker stores (the rollup check uses store 0's rows only).
type realtimeTrial struct {
	schema brick.Schema
	cfg    rollup.Config
	stores []*brick.Store
	tables []*rollup.Table
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
	nStores := 1 + rnd.Intn(3)
	for i := 0; i < nStores; i++ {
		s, err := brick.NewStore(tr.schema)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := rollup.New(tr.schema, tr.cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr.stores = append(tr.stores, s)
		tr.tables = append(tr.tables, tbl)
	}
	return tr
}

// ingest inserts n random rows spread across the worker stores. Metric
// values are small integers so every aggregate is fold-order independent.
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
		if err := tr.stores[rnd.Intn(len(tr.stores))].Insert(dims, mets); err != nil {
			t.Fatal(err)
		}
	}
}

func (tr *realtimeTrial) compact(t *testing.T, rnd *randutil.Source) {
	t.Helper()
	for _, s := range tr.stores {
		if rnd.Bernoulli(0.5) {
			continue
		}
		s.DecayHotness(rnd.Float64())
		if _, err := s.CompactOnce(brick.CompactionConfig{
			EncodeBelow: rnd.Float64() * 20,
			EvictBelow:  rnd.Float64() * 10,
		}); err != nil {
			t.Fatal(err)
		}
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

// checkRollup compares the hybrid rollup answer on store 0 against the
// full-scan reference, exercising the snapshot/delta codec round-trip on a
// third of the hits. Returns whether the query was rollup-served.
func (tr *realtimeTrial) checkRollup(t *testing.T, rnd *randutil.Source, trial int) bool {
	t.Helper()
	st, tbl := tr.stores[0], tr.tables[0]
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

// topkQuery builds a random pushdown-eligible top-k query over every
// eligible (aggregate, direction) combination.
func (tr *realtimeTrial) topkQuery(rnd *randutil.Source) *Query {
	q := &Query{}
	shapes := []struct {
		agg  Aggregate
		desc bool
	}{
		{Aggregate{Func: Sum, Metric: "m0"}, true},
		{Aggregate{Func: Sum, Metric: "m0"}, false},
		{Aggregate{Func: Count}, true},
		{Aggregate{Func: Count}, false},
		{Aggregate{Func: Max, Metric: "m0"}, true},
		{Aggregate{Func: Min, Metric: "m0"}, false},
	}
	s := shapes[rnd.Intn(len(shapes))]
	q.Aggregates = []Aggregate{s.agg, {Func: Count, Alias: "n"}}
	q.OrderBy, q.Desc = s.agg.Name(), s.desc
	nGroup := 1 + rnd.Intn(2)
	if nGroup > len(tr.schema.Dimensions) {
		nGroup = len(tr.schema.Dimensions)
	}
	for _, d := range rnd.Perm(len(tr.schema.Dimensions))[:nGroup] {
		q.GroupBy = append(q.GroupBy, tr.schema.Dimensions[d].Name)
	}
	q.Limit = 1 + rnd.Intn(8)
	if rnd.Bernoulli(0.4) {
		max := tr.schema.Dimensions[0].Max
		lo := uint32(rnd.Intn(int(max)))
		q.Filter = map[string][2]uint32{"ds": {lo, lo + uint32(rnd.Intn(int(max-lo)))}}
	}
	return q
}

// checkTopK runs the full distributed top-k protocol test-side — per-worker
// prune, merge, certify, targeted phase 2, full-partial fallback — and
// compares against merging unpruned partials. Returns (certified phase-1,
// usedPhase2).
func (tr *realtimeTrial) checkTopK(t *testing.T, rnd *randutil.Source, trial int) (bool, bool) {
	t.Helper()
	q := tr.topkQuery(rnd)
	ref := NewPartial(q)
	for _, s := range tr.stores {
		p, _, err := runUnshared(s, q, 0, Opts{})
		if err != nil {
			t.Fatalf("trial %d topk reference: %v", trial, err)
		}
		if err := ref.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	want := ref.Finalize()

	m, ok := NewTopKMerger(q)
	if !ok {
		t.Fatalf("trial %d: topk query unexpectedly ineligible (q=%+v)", trial, q)
	}
	kPrime := q.Limit * (1 + rnd.Intn(3)) // overfetch 1x..3x: 1x provokes phase 2
	for wi, s := range tr.stores {
		p, _, err := runUnshared(s, q, 0, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		if wi == 0 && rnd.Bernoulli(0.2) {
			// A mixed-fleet worker that ignored the negotiation and shipped
			// its full partial: bounded=false, exact everywhere.
			if _, err := m.Add(p, 0, false); err != nil {
				t.Fatal(err)
			}
			continue
		}
		threshold, complete := PruneTopK(p, kPrime)
		if _, err := m.Add(p, threshold, !complete); err != nil {
			t.Fatal(err)
		}
	}
	res := m.Resolve()
	phase1Certified := res.Certified
	usedPhase2 := false
	if !res.Certified && !res.UnseenBlocked && len(res.NeedKeys) > 0 {
		usedPhase2 = true
		for wi, keys := range res.NeedKeys {
			p, _, err := runUnshared(tr.stores[wi], q, 0, Opts{})
			if err != nil {
				t.Fatal(err)
			}
			p.Subset(keys)
			if err := m.AddResolved(wi, p, keys); err != nil {
				t.Fatal(err)
			}
		}
		res = m.Resolve()
		if !res.Certified && !res.UnseenBlocked {
			t.Fatalf("trial %d: phase 2 resolved nothing (q=%+v, need=%v)", trial, q, res.NeedKeys)
		}
	}
	var got *Result
	if res.Certified {
		got = res.Result.Finalize()
	} else {
		// UnseenBlocked: protocol falls back to full partials.
		got = want
	}
	if err := rowsEqual(want, got); err != nil {
		t.Fatalf("trial %d topk vs reference (q=%+v, certified=%v): %v", trial, q, res.Certified, err)
	}
	return phase1Certified, usedPhase2
}

// TestRealtimeEquivalence is the pinning harness for the realtime paths:
// 40 random trials, each interleaving ingest, rollup catch-up, compaction
// and a brick-replacing self-import (generation bump), then checking both
// the rollup hybrid and the distributed top-k protocol against full scans.
func TestRealtimeEquivalence(t *testing.T) {
	rnd := randutil.New(0x701CAFE)
	rollupHits, topkCertified, topkPhase2 := 0, 0, 0
	for trial := 0; trial < 40; trial++ {
		tr := newRealtimeTrial(t, rnd)
		tr.ingest(t, rnd, 300+rnd.Intn(900))
		// Catch the rollup up mid-stream so watermarks sit strictly inside
		// bricks, then keep ingesting: the freshest rows are covered only by
		// the delta scan, which is exactly the freshness guarantee under test.
		for _, tbl := range tr.tables {
			if _, err := tbl.CatchUp(tr.stores[0]); err != nil && tbl == tr.tables[0] {
				t.Fatalf("trial %d catch-up: %v", trial, err)
			}
			break
		}
		tr.compact(t, rnd)
		tr.ingest(t, rnd, 100+rnd.Intn(400))
		if rnd.Bernoulli(0.25) {
			// Brick-replacing self-import: voids watermarks, bumps the store
			// generation; the rollup must rebuild, not double-count.
			st := tr.stores[0]
			blob, err := st.Export()
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
			tr.stores[0] = fresh
		}
		tr.ingest(t, rnd, 50+rnd.Intn(200))
		if tr.checkRollup(t, rnd, trial) {
			rollupHits++
		}
		c, p2 := tr.checkTopK(t, rnd, trial)
		if c {
			topkCertified++
		}
		if p2 {
			topkPhase2++
		}
	}
	// The harness must actually exercise the interesting paths, not skip
	// its way to green.
	if rollupHits < 20 {
		t.Fatalf("only %d/40 trials were rollup-served", rollupHits)
	}
	if topkCertified < 10 {
		t.Fatalf("only %d/40 top-k trials certified in one phase", topkCertified)
	}
	if topkPhase2 < 3 {
		t.Fatalf("only %d/40 top-k trials exercised phase 2", topkPhase2)
	}
}
