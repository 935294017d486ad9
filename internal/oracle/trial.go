package oracle

import (
	"fmt"
	"testing"

	"cubrick/internal/brick"
	"cubrick/internal/engine"
	"cubrick/internal/randutil"
)

// NewTrial draws one differential scenario from rnd: a store filled with
// rows whose column shapes provoke specific encodings, driven into a tier
// mix, and a query over it. The schema has one to four dimensions,
// each shaped sorted (runs), few-valued (dictionary codes), constant or
// uniform, half the time one shape for all so composite-key views form,
// and sometimes over a domain too wide for a dense kernel. The store holds
// a few hundred to 1 500 rows, one trial in ten a few dozen at most; it
// stays raw, has every brick compressed, or is driven into a mix of raw,
// encoded, flate-compressed and evicted bricks by random compaction
// passes. One schema in ten has no metric. The query
// draws one to four aggregates of any function, a GROUP BY of zero to all
// dimensions, often a filter, and sometimes HAVING, ORDER BY and LIMIT.
//
// Metric values are multiples of 1/4 below 2^14 when dyadic, so every sum
// is exact in any order; otherwise they are uniform in [0, 1000) and sums
// round, which only a reference with the engine's summation order matches
// bit for bit.
func NewTrial(tb testing.TB, rnd *randutil.Source, dyadic bool) (*brick.Store, *engine.Query) {
	tb.Helper()
	nDims := 1 + rnd.Intn(4)
	shapes := make([]int, nDims)
	// Half the trials force one shape on every dimension so the
	// composite-key encoded views (k-wise run intersection, dictionary-code
	// tuples) form: with independent shapes, an all-runs brick over three
	// grouped dimensions is a coin flip cubed.
	allShape := -1
	if rnd.Bernoulli(0.5) {
		allShape = rnd.Intn(2) // 0 sorted→runs everywhere, 1 few→dict everywhere
	}
	var schema brick.Schema
	for d := range shapes {
		max := uint32(8 + rnd.Intn(120))
		if allShape < 0 && rnd.Bernoulli(0.2) {
			// Off the dense kernel onto the packed and byte-string ones.
			max = uint32(5000 + rnd.Intn(50000))
		}
		buckets := uint32(1 + rnd.Intn(4))
		if max <= 128 && rnd.Bernoulli(0.25) {
			buckets = uint32(1 + rnd.Intn(int(max)/2)) // many small bricks
		}
		schema.Dimensions = append(schema.Dimensions, brick.Dimension{
			Name: fmt.Sprintf("d%d", d), Max: max, Buckets: buckets})
		shapes[d] = rnd.Intn(4) // 0 sorted, 1 few, 2 const, 3 uniform
		if allShape >= 0 {
			shapes[d] = allShape
		}
	}
	nMetrics := 1 + rnd.Intn(2)
	if rnd.Bernoulli(0.1) {
		nMetrics = 0 // COUNT and COUNT(DISTINCT) only
	}
	for m := 0; m < nMetrics; m++ {
		schema.Metrics = append(schema.Metrics, brick.Metric{Name: fmt.Sprintf("m%d", m)})
	}
	s, err := brick.NewStore(schema)
	if err != nil {
		tb.Fatal(err)
	}
	rows := 300 + rnd.Intn(1200)
	if rnd.Bernoulli(0.1) {
		rows = rnd.Intn(40)
	}
	few := make([][3]uint32, nDims)
	for d := range few {
		for i := range few[d] {
			few[d][i] = uint32(rnd.Intn(int(schema.Dimensions[d].Max)))
		}
	}
	dims, mets := make([]uint32, nDims), make([]float64, nMetrics)
	for r := 0; r < rows; r++ {
		for d := range dims {
			max := int(schema.Dimensions[d].Max)
			switch shapes[d] {
			case 0:
				dims[d] = uint32(r * max / rows)
			case 1:
				dims[d] = few[d][rnd.Intn(3)]
			case 2:
				dims[d] = few[d][0]
			default:
				dims[d] = uint32(rnd.Intn(max))
			}
		}
		for m := range mets {
			if dyadic {
				mets[m] = float64(rnd.Intn(1<<16)) / 4
			} else {
				mets[m] = rnd.Float64() * 1e3
			}
		}
		if err := s.Insert(dims, mets); err != nil {
			tb.Fatal(err)
		}
	}
	switch rnd.Intn(4) {
	case 0: // every brick raw
	case 1: // every brick compressed
		if _, _, err := s.EnsureBudget(0, 0.5); err != nil {
			tb.Fatal(err)
		}
	default: // a mix of raw, encoded and flate-compressed, evicted bricks
		// Ingest heats a brick by one per row: cool the bricks to around
		// the random thresholds below.
		s.DecayHotness(rnd.Float64() * 0.05)
		for i, passes := 0, 1+rnd.Intn(3); i < passes; i++ {
			if _, err := s.CompactOnce(brick.CompactionConfig{
				EncodeBelow: rnd.Float64() * 20, EvictBelow: rnd.Float64() * 10,
			}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return s, newQuery(schema, rnd)
}

func newQuery(schema brick.Schema, rnd *randutil.Source) *engine.Query {
	funcs := []engine.AggFunc{engine.Sum, engine.Count, engine.Min, engine.Max, engine.Avg, engine.CountDistinct}
	q := &engine.Query{}
	for a, n := 0, 1+rnd.Intn(4); a < n; a++ {
		agg := engine.Aggregate{Func: funcs[rnd.Intn(len(funcs))], Alias: fmt.Sprintf("a%d", a)}
		if len(schema.Metrics) == 0 && agg.Func != engine.CountDistinct {
			agg.Func = engine.Count
		}
		switch agg.Func {
		case engine.Count:
		case engine.CountDistinct:
			// Sometimes a grouped dimension, which must disqualify that
			// dimension's encoded view alone.
			agg.Metric = schema.Dimensions[rnd.Intn(len(schema.Dimensions))].Name
		default:
			agg.Metric = schema.Metrics[rnd.Intn(len(schema.Metrics))].Name
		}
		q.Aggregates = append(q.Aggregates, agg)
	}
	nDims := len(schema.Dimensions)
	for _, d := range rnd.Perm(nDims)[:rnd.Intn(nDims+1)] {
		q.GroupBy = append(q.GroupBy, schema.Dimensions[d].Name)
	}
	if rnd.Bernoulli(0.6) {
		q.Filter = map[string][2]uint32{}
		for _, d := range rnd.Perm(nDims)[:1+rnd.Intn(min(2, nDims))] {
			max := schema.Dimensions[d].Max
			lo := uint32(rnd.Intn(int(max)))
			hi := lo + uint32(rnd.Intn(int(max-lo)))
			if rnd.Bernoulli(0.2) {
				lo, hi = 0, max // covers every brick: the fully covered path
			}
			q.Filter[schema.Dimensions[d].Name] = [2]uint32{lo, hi}
		}
	}
	if rnd.Bernoulli(0.2) {
		q.Having = []engine.HavingCond{{Column: "a0", Op: ">=", Value: float64(rnd.Intn(4))}}
	}
	if len(q.GroupBy) > 0 && rnd.Bernoulli(0.3) {
		q.OrderBy, q.Desc, q.Limit = "a0", rnd.Bernoulli(0.5), 1+rnd.Intn(10)
	}
	return q
}
