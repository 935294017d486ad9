package engine

import (
	"fmt"
	"testing"

	"cubrick/internal/brick"
	"cubrick/internal/randutil"
)

// rowsEqual compares only the answer (columns and rows), not the scan
// counters — for pairs of executions whose cost profile legitimately
// differs (skippers on vs off change Decompressions and RowsScanned, never
// the result).
func rowsEqual(a, b *Result) error {
	if len(a.Columns) != len(b.Columns) {
		return fmt.Errorf("columns %v vs %v", a.Columns, b.Columns)
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("row counts %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return fmt.Errorf("row %d arity %d vs %d", i, len(a.Rows[i]), len(b.Rows[i]))
		}
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				return fmt.Errorf("row %d col %d: %v vs %v", i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
	return nil
}

// diffTrial is one random differential scenario: a schema, per-column data
// shapes picked to provoke specific encodings, a compaction tier state
// (raw / encoded / flate+evicted), and a query with random grouping,
// aggregates (incl. HLL sketches) and filters.
type diffTrial struct {
	schema brick.Schema
	store  *brick.Store
	query  *Query
}

// newDiffTrial builds a random trial. Metric values are dyadic rationals so
// float accumulation is exact in any order and "bit-identical" is a
// meaningful demand.
func newDiffTrial(t *testing.T, rnd *randutil.Source) *diffTrial {
	t.Helper()
	nDims := 2 + rnd.Intn(3) // 2..4 dims: exercises 2-dim and packed 3+-dim kernels
	shapes := make([]int, nDims)
	// Half the trials force one shape across every dimension so the
	// composite-key encoded views (k-wise run intersection, dict-tuple
	// slots) actually form: with independent random shapes, an all-runs or
	// all-dict brick over 3 group dims is a coin-flip cubed.
	allShape := -1
	if rnd.Bernoulli(0.5) {
		allShape = rnd.Intn(2) // 0 sorted→runs everywhere, 1 few→dict everywhere
	}
	schema := brick.Schema{}
	for d := 0; d < nDims; d++ {
		max := uint32(8 + rnd.Intn(120))
		if allShape < 0 && rnd.Bernoulli(0.2) {
			// A wide domain pushes the per-task kernel off the dense array
			// onto the map/packed composite-key fallbacks.
			max = uint32(5000 + rnd.Intn(50000))
		}
		schema.Dimensions = append(schema.Dimensions, brick.Dimension{
			Name: fmt.Sprintf("d%d", d), Max: max, Buckets: uint32(1 + rnd.Intn(4)),
		})
		shapes[d] = rnd.Intn(4) // 0 sorted→rle/for, 1 few→dict, 2 const, 3 random→raw
		if allShape >= 0 {
			shapes[d] = allShape
		}
	}
	nMetrics := 1 + rnd.Intn(2)
	for m := 0; m < nMetrics; m++ {
		schema.Metrics = append(schema.Metrics, brick.Metric{Name: fmt.Sprintf("m%d", m)})
	}
	s, err := brick.NewStore(schema)
	if err != nil {
		t.Fatal(err)
	}
	rows := 300 + rnd.Intn(1200)
	fewVals := make([][]uint32, nDims)
	for d := range fewVals {
		fewVals[d] = make([]uint32, 3)
		for i := range fewVals[d] {
			fewVals[d][i] = uint32(rnd.Intn(int(schema.Dimensions[d].Max)))
		}
	}
	dims := make([]uint32, nDims)
	mets := make([]float64, nMetrics)
	for r := 0; r < rows; r++ {
		for d := 0; d < nDims; d++ {
			max := int(schema.Dimensions[d].Max)
			switch shapes[d] {
			case 0:
				dims[d] = uint32(r * max / rows)
			case 1:
				dims[d] = fewVals[d][rnd.Intn(3)]
			case 2:
				dims[d] = fewVals[d][0]
			default:
				dims[d] = uint32(rnd.Intn(max))
			}
		}
		for m := range mets {
			mets[m] = float64(rnd.Intn(1<<16)) / 4
		}
		if err := s.Insert(dims, mets); err != nil {
			t.Fatal(err)
		}
	}
	// Random tier state: some bricks stay raw, some encode, some are
	// flate-compressed and SSD-evicted (their columns rebuild on demand).
	s.DecayHotness(rnd.Float64())
	for i, passes := 0, 1+rnd.Intn(3); i < passes; i++ {
		if _, err := s.CompactOnce(brick.CompactionConfig{
			EncodeBelow: rnd.Float64() * 20,
			EvictBelow:  rnd.Float64() * 10,
		}); err != nil {
			t.Fatal(err)
		}
	}

	q := &Query{Aggregates: []Aggregate{{Func: Sum, Metric: "m0"}, {Func: Count}}}
	if rnd.Bernoulli(0.5) {
		q.Aggregates = append(q.Aggregates,
			Aggregate{Func: Min, Metric: "m0"}, Aggregate{Func: Max, Metric: "m0"},
			Aggregate{Func: Avg, Metric: "m0"})
	}
	if rnd.Bernoulli(0.4) {
		// HLL sketch over a random dimension — sometimes one that is also
		// grouped, which must disqualify that dim's encoded view alone.
		q.Aggregates = append(q.Aggregates,
			Aggregate{Func: CountDistinct, Metric: schema.Dimensions[rnd.Intn(nDims)].Name})
	}
	nGroup := 1 + rnd.Intn(nDims)
	for _, d := range rnd.Perm(nDims)[:nGroup] {
		q.GroupBy = append(q.GroupBy, schema.Dimensions[d].Name)
	}
	if rnd.Bernoulli(0.6) {
		q.Filter = map[string][2]uint32{}
		for _, d := range rnd.Perm(nDims)[:1+rnd.Intn(2)] {
			max := schema.Dimensions[d].Max
			lo := uint32(rnd.Intn(int(max)))
			hi := lo + uint32(rnd.Intn(int(max-lo)))
			if rnd.Bernoulli(0.2) {
				lo, hi = 0, max // full coverage → Full-brick path
			}
			q.Filter[schema.Dimensions[d].Name] = [2]uint32{lo, hi}
		}
	}
	return &diffTrial{schema: schema, store: s, query: q}
}

// TestEncodedDifferential is the pinning harness for encoded execution:
// across 60 random trials of schema × data shape × per-column encoding ×
// compaction tier × query (multi-dim GROUP BY, HLL metrics, filters), the
// four execution strategies must agree —
//
//	serial materialized  ≡ parallel encoded     (bit-identical, counters too)
//	parallel encoded     ≡ encoded kernels off  (same answer)
//	parallel encoded     ≡ skippers off         (same answer)
//
// The first pair shares cost counters because pruning is applied on both
// paths; the toggled runs legitimately differ in Decompressions/RowsScanned
// (that is the point of the toggles), so they compare answers only.
func TestEncodedDifferential(t *testing.T) {
	rnd := randutil.New(0xD1FF)
	for trial := 0; trial < 60; trial++ {
		tr := newDiffTrial(t, rnd)
		run := func(o Opts) *Result {
			parallel, _, err := runUnshared(tr.store, tr.query, 4, o)
			if err != nil {
				t.Fatalf("trial %d parallel %+v: %v", trial, o, err)
			}
			return parallel.Finalize()
		}
		serial, err := Execute(tr.store, tr.query)
		if err != nil {
			t.Fatalf("trial %d serial: %v", trial, err)
		}
		parallel := run(Opts{})
		if err := resultsEqual(serial.Finalize(), parallel); err != nil {
			t.Fatalf("trial %d serial vs parallel (q=%+v): %v", trial, tr.query, err)
		}
		noEnc := run(Opts{noEncodedKernels: true})
		if err := rowsEqual(parallel, noEnc); err != nil {
			t.Fatalf("trial %d encoded kernels changed the answer (q=%+v): %v", trial, tr.query, err)
		}
		noSkip := run(Opts{noSkippers: true})
		if err := rowsEqual(parallel, noSkip); err != nil {
			t.Fatalf("trial %d skippers changed the answer (q=%+v): %v", trial, tr.query, err)
		}
	}
}

// skipperSchema shapes a store for the skipper oracle: the filter column
// "pos" lives in one bucket with long sorted runs inside every brick, so
// range filters cannot be answered by brick pruning and must be decided run
// by run — exactly the skipper's job.
func skipperOracleStore(t *testing.T, rnd *randutil.Source) (*brick.Store, [][]uint32, []float64) {
	t.Helper()
	schema := brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "key", Max: 40, Buckets: 4},
			{Name: "pos", Max: 100, Buckets: 1},  // runs of ~50 per brick → RLE
			{Name: "pos2", Max: 150, Buckets: 1}, // runs of 37, misaligned with pos
			{Name: "tag", Max: 1000, Buckets: 1}, // few distinct → dict codes
		},
		Metrics: []brick.Metric{{Name: "m"}},
	}
	s, err := brick.NewStore(schema)
	if err != nil {
		t.Fatal(err)
	}
	tags := []uint32{7, 133, 512, 900}
	var dims [][]uint32
	var mets []float64
	const rows = 5000
	for i := 0; i < rows; i++ {
		d := []uint32{
			uint32(rnd.Intn(40)),
			uint32(i / (rows / 100)),
			uint32(i / 37),
			tags[rnd.Intn(len(tags))],
		}
		m := float64(rnd.Intn(1<<16)) / 4
		if err := s.Insert(d, []float64{m}); err != nil {
			t.Fatal(err)
		}
		dims = append(dims, d)
		mets = append(mets, m)
	}
	if _, _, err := s.EnsureBudget(0, 0.5); err != nil {
		t.Fatal(err)
	}
	return s, dims, mets
}

// TestSkipperOracle checks the compiled predicate skippers against a
// test-side row-at-a-time oracle over random filter sets, then pins the
// scan accounting: a selective range over the run-encoded column must
// decide >90% of its runs without touching their rows.
func TestSkipperOracle(t *testing.T) {
	rnd := randutil.New(0x5C1B)
	s, dims, mets := skipperOracleStore(t, rnd)
	names := []string{"key", "pos", "pos2", "tag"}
	maxes := []uint32{40, 100, 150, 1000}
	for trial := 0; trial < 30; trial++ {
		f := map[string][2]uint32{}
		if trial < 5 {
			// Two run-shaped filter dims in one brick force the span
			// intersection path (accepted row spans merged across skippers).
			f["pos"] = [2]uint32{uint32(10 * trial), uint32(10*trial + 25)}
			f["pos2"] = [2]uint32{uint32(7 * trial), uint32(7*trial + 40)}
		}
		for _, d := range rnd.Perm(4)[:1+rnd.Intn(2)] {
			lo := uint32(rnd.Intn(int(maxes[d])))
			hi := lo + uint32(rnd.Intn(int(maxes[d]-lo)))
			f[names[d]] = [2]uint32{lo, hi}
		}
		q := &Query{
			Aggregates: []Aggregate{{Func: Sum, Metric: "m"}, {Func: Count}},
			GroupBy:    []string{"key"},
			Filter:     f,
		}
		got, _, err := runUnshared(s, q, 0, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		// Row-at-a-time oracle over the raw inserted rows.
		type agg struct {
			sum float64
			n   float64
		}
		want := map[uint32]*agg{}
		for i, d := range dims {
			in := true
			for di, name := range names {
				if r, ok := f[name]; ok && (d[di] < r[0] || d[di] > r[1]) {
					in = false
					break
				}
			}
			if !in {
				continue
			}
			a := want[d[0]]
			if a == nil {
				a = &agg{}
				want[d[0]] = a
			}
			a.sum += mets[i]
			a.n++
		}
		res := got.Finalize()
		if len(res.Rows) != len(want) {
			t.Fatalf("trial %d filter %v: %d groups, oracle has %d", trial, f, len(res.Rows), len(want))
		}
		for _, row := range res.Rows {
			key := uint32(row[0])
			a := want[key]
			if a == nil {
				t.Fatalf("trial %d: unexpected group %d", trial, key)
			}
			if row[1] != a.sum || row[2] != a.n {
				t.Fatalf("trial %d group %d: got (%v,%v), oracle (%v,%v)",
					trial, key, row[1], row[2], a.sum, a.n)
			}
		}
	}

	// Scan accounting: a 3-wide range over "pos" (100 runs per brick) must
	// skip >90% of runs without reading their rows.
	q := &Query{
		Aggregates: []Aggregate{{Func: Count}},
		GroupBy:    []string{"key"},
		Filter:     map[string][2]uint32{"pos": {40, 42}},
	}
	_, st, err := runUnshared(s, q, 0, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	total := st.RunsTouched + st.RunsSkipped
	if total == 0 {
		t.Fatal("selective filter never hit the run skipper")
	}
	if frac := float64(st.RunsSkipped) / float64(total); frac < 0.9 {
		t.Fatalf("selective filter skipped %.1f%% of runs (%d/%d), want >90%%",
			frac*100, st.RunsSkipped, total)
	}
	// And a dictionary-shaped filter decides whole code classes: a range
	// excluding every tag value must report skipped codes and zero rows.
	qd := &Query{
		Aggregates: []Aggregate{{Func: Count}},
		GroupBy:    []string{"key"},
		Filter:     map[string][2]uint32{"tag": {200, 400}},
	}
	res, std, err := runUnshared(s, qd, 0, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Finalize().Rows) != 0 {
		t.Fatal("tag range excluding every value matched rows")
	}
	if std.CodesSkipped == 0 && std.BricksStatsPruned == 0 {
		t.Fatalf("dict skipper accounting empty: %+v", std)
	}
}

// TestSelectionEdges pins buildSel's selection vectors on the ranges a
// random filter rarely draws — inverted, single-value, starting at 0,
// ending at MaxUint32, accepting a brick's last run — and on filters of
// three and four predicates, so the in-place compaction runs more than
// once. Every filter column shape takes part: runs ("run"), dictionary
// codes ("code") and materialized values ("val", "val2") in encoded
// bricks, and materialized values only in the same rows kept raw. Run
// must equal the serial Execute bit for bit.
func TestSelectionEdges(t *testing.T) {
	const top = ^uint32(0)
	schema := brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "key", Max: 40, Buckets: 4},
			{Name: "run", Max: 100, Buckets: 1},   // ascending in every brick: runs
			{Name: "code", Max: 1000, Buckets: 1}, // four values: dictionary codes
			{Name: "val", Max: 1000, Buckets: 1},  // uniform: materialized
			{Name: "val2", Max: 64, Buckets: 1},   // uniform: materialized
		},
		Metrics: []brick.Metric{{Name: "m"}},
	}
	rnd := randutil.New(0x5E1)
	encoded, err := brick.NewStore(schema)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := brick.NewStore(schema)
	if err != nil {
		t.Fatal(err)
	}
	tags := []uint32{7, 133, 512, 900}
	const rows = 3000
	for i := 0; i < rows; i++ {
		d := []uint32{uint32(rnd.Intn(40)), uint32(i * 100 / rows), tags[rnd.Intn(len(tags))],
			uint32(rnd.Intn(1000)), uint32(rnd.Intn(64))}
		// Dyadic: Execute sums a group across bricks in one register, Run
		// per brick, so only exact sums compare bit for bit.
		m := []float64{float64(rnd.Intn(1<<16)) / 4}
		if err := encoded.Insert(d, m); err != nil {
			t.Fatal(err)
		}
		if err := raw.Insert(d, m); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := encoded.EnsureBudget(0, 0.5); err != nil {
		t.Fatal(err)
	}
	if st := encoded.EncodingStats(); st.Dims["rle"] == 0 || st.Dims["dict"] == 0 || st.Dims["for"] == 0 {
		t.Fatalf("want run, dictionary and FOR-materialized filter columns, got %v", st.Dims)
	}
	filters := map[string]map[string][2]uint32{
		"inverted materialized":         {"val": {600, 300}},
		"inverted codes":                {"code": {900, 7}},
		"inverted runs":                 {"run": {40, 10}},
		"inverted behind runs":          {"run": {3, 60}, "val2": {40, 10}},
		"inverted behind codes":         {"code": {100, 600}, "val": {700, 100}},
		"single value materialized":     {"val": {500, 500}},
		"single value codes":            {"code": {133, 133}},
		"single value runs":             {"run": {42, 42}, "val2": {7, 7}},
		"lo 0":                          {"val": {0, 99}, "code": {0, 133}, "run": {0, 5}},
		"hi max materialized":           {"val": {900, top}},
		"hi max codes":                  {"code": {512, top}, "val2": {0, 31}},
		"full range materialized":       {"val": {0, top}, "val2": {3, 9}},
		"span ends at last row":         {"run": {90, top}, "val": {100, 900}},
		"last run alone":                {"run": {99, 99}, "val2": {0, 31}},
		"three predicates":              {"code": {100, 600}, "val": {200, 800}, "val2": {10, 40}},
		"runs and three predicates":     {"run": {20, 70}, "code": {0, 600}, "val": {100, 700}, "val2": {5, 50}},
		"three predicates, last sparse": {"code": {7, 512}, "val": {0, 999}, "val2": {63, top}},
		"vacuous codes, sparse first":   {"code": {0, top}, "val": {995, top}, "val2": {0, 63}},
	}
	aggs := []Aggregate{{Func: Sum, Metric: "m"}, {Func: Count}, {Func: Min, Metric: "m"}, {Func: CountDistinct, Metric: "val"}}
	for name, f := range filters {
		for _, s := range []*brick.Store{encoded, raw} {
			for _, groupBy := range [][]string{{"key"}, nil} {
				q := &Query{Aggregates: aggs, GroupBy: groupBy, Filter: f}
				want, err := Execute(s, q)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := runUnshared(s, q, 2, Opts{})
				if err != nil {
					t.Fatal(err)
				}
				if err := resultsEqual(want.Finalize(), got.Finalize()); err != nil {
					t.Fatalf("%s (encoded %v, groupby %v): %v", name, s == encoded, groupBy, err)
				}
			}
		}
	}
}

// TestCompositeKeyEncodedViews pins the composite-key encoded paths the
// random harness reaches only by luck: dictionary-tuple aggregation (dense
// slot array over the code cross-product) feeding the wide-key kernels
// (2-dim packed map, 3+-dim bit-packed, and the byte-string fallback when
// the packed key overflows 64 bits).
func TestCompositeKeyEncodedViews(t *testing.T) {
	rnd := randutil.New(0xC0DE)
	build := func(nDims int) *brick.Store {
		schema := brick.Schema{Metrics: []brick.Metric{{Name: "m"}}}
		for d := 0; d < nDims; d++ {
			schema.Dimensions = append(schema.Dimensions, brick.Dimension{
				Name: fmt.Sprintf("d%d", d), Max: 700000, Buckets: 1,
			})
		}
		s, err := brick.NewStore(schema)
		if err != nil {
			t.Fatal(err)
		}
		// Four distinct wide values per dim, interleaved: every brick sees a
		// small dictionary over a huge domain, so the dense array kernel is
		// off the table and the composite-key fallbacks must carry the tuple
		// view.
		dims := make([]uint32, nDims)
		for r := 0; r < 900; r++ {
			for d := range dims {
				// 19-bit per-dim spread: 4 grouped dims overflow the 64-bit
				// packed key and must fall back to the byte-string kernel.
				dims[d] = uint32(d*90000 + rnd.Intn(4)*90001)
			}
			if err := s.Insert(dims, []float64{float64(rnd.Intn(1<<16)) / 4}); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := s.EnsureBudget(0, 0.5); err != nil {
			t.Fatal(err)
		}
		if st := s.EncodingStats(); st.Dims["dict"] == 0 {
			t.Fatalf("wide few-valued dims never chose dict: %v", st.Dims)
		}
		return s
	}
	for _, nDims := range []int{2, 3, 4} {
		s := build(nDims)
		q := &Query{Aggregates: []Aggregate{{Func: Sum, Metric: "m"}, {Func: Count}}}
		for d := 0; d < nDims; d++ {
			q.GroupBy = append(q.GroupBy, fmt.Sprintf("d%d", d))
		}
		fast, _, err := runUnshared(s, q, 4, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		serial, err := Execute(s, q)
		if err != nil {
			t.Fatal(err)
		}
		if err := resultsEqual(serial.Finalize(), fast.Finalize()); err != nil {
			t.Fatalf("nDims=%d serial vs parallel: %v", nDims, err)
		}
		slow, _, err := runUnshared(s, q, 4, Opts{noEncodedKernels: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := rowsEqual(fast.Finalize(), slow.Finalize()); err != nil {
			t.Fatalf("nDims=%d tuple view changed the answer: %v", nDims, err)
		}
	}
}
