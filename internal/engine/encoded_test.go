package engine

import (
	"fmt"
	"testing"

	"cubrick/internal/brick"
	"cubrick/internal/randutil"
)

// encodedSchema shapes the group dimension "key" so each brick's bound
// width selects the wanted per-task kernel: dense (width ≤ 4096) or the
// packed map fallback.
func encodedSchema(dense bool) brick.Schema {
	key := brick.Dimension{Name: "key", Max: 64, Buckets: 8} // width 8 → denseAcc
	if !dense {
		key = brick.Dimension{Name: "key", Max: 100000, Buckets: 2} // width 50000 → packedAcc
	}
	return brick.Schema{
		Dimensions: []brick.Dimension{
			key,
			{Name: "other", Max: 50, Buckets: 5},
		},
		Metrics: []brick.Metric{{Name: "m"}},
	}
}

// loadEncodedStore fills a store with data shaped to trigger the given
// group-column encoding (rle, dict, or for0/constant) and compresses every
// brick. Metrics are dyadic rationals so aggregation order cannot matter.
func loadEncodedStore(t *testing.T, schema brick.Schema, shape string, rnd *randutil.Source) *brick.Store {
	t.Helper()
	s, err := brick.NewStore(schema)
	if err != nil {
		t.Fatal(err)
	}
	keyMax := int(schema.Dimensions[0].Max)
	bucketW := keyMax / int(schema.Dimensions[0].Buckets)
	insert := func(key uint32) {
		other := uint32(rnd.Intn(50))
		m := float64(rnd.Intn(1<<16)) / 4
		if err := s.Insert([]uint32{key, other}, []float64{m}); err != nil {
			t.Fatal(err)
		}
	}
	switch shape {
	case "rle": // sorted keys → long runs inside each brick
		for k := 0; k < keyMax; k += bucketW / 2 {
			for r := 0; r < 60; r++ {
				insert(uint32(k))
			}
		}
	case "dict": // few distinct keys interleaved → dictionary
		vals := make([]uint32, 4)
		for i := range vals {
			vals[i] = uint32(i * bucketW / 4)
		}
		for r := 0; r < 600; r++ {
			insert(vals[rnd.Intn(len(vals))])
		}
	case "const": // one key per brick → zero-width FOR (single run)
		for b := 0; b < int(schema.Dimensions[0].Buckets); b++ {
			for r := 0; r < 80; r++ {
				insert(uint32(b * bucketW))
			}
		}
	default:
		t.Fatalf("unknown shape %q", shape)
	}
	if _, _, err := s.EnsureBudget(0, 0.5); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEncodedKernelEquivalence is the equivalence property for the
// encoding-aware GROUP BY kernels: over data shaped into every encoded
// view (runs, dictionary codes, constant single-run), on both the dense
// and the map kernel, with and without filters, the parallel path —
// which consumes the encoded structure directly — must finalize exactly
// like the serial materialized reference.
func TestEncodedKernelEquivalence(t *testing.T) {
	rnd := randutil.New(42)
	queries := []*Query{
		{
			Aggregates: []Aggregate{
				{Func: Sum, Metric: "m"}, {Func: Count},
				{Func: Min, Metric: "m"}, {Func: Max, Metric: "m"},
				{Func: Avg, Metric: "m"},
			},
			GroupBy: []string{"key"},
		},
		{
			// CountDistinct over the *other* dimension rides along per run.
			Aggregates: []Aggregate{
				{Func: Count}, {Func: CountDistinct, Metric: "other"},
			},
			GroupBy: []string{"key"},
		},
	}
	filters := []map[string][2]uint32{
		nil,
		{"key": {0, 1 << 30}}, // covers every brick → Full path
		{"other": {10, 39}},   // partial coverage → row filter path
	}
	for _, dense := range []bool{true, false} {
		for _, shape := range []string{"rle", "dict", "const"} {
			s := loadEncodedStore(t, encodedSchema(dense), shape, rnd)
			wantEnc := map[string]string{"rle": "rle", "dict": "dict", "const": "for0"}[shape]
			if st := s.EncodingStats(); st.Dims[wantEnc] == 0 {
				t.Fatalf("dense=%v shape=%s: group column never chose %s: %v",
					dense, shape, wantEnc, st.Dims)
			}
			for qi, q := range queries {
				for fi, f := range filters {
					q.Filter = f
					serial, err := Execute(s, q)
					if err != nil {
						t.Fatal(err)
					}
					parallel, _, err := runUnshared(s, q, 4, Opts{})
					if err != nil {
						t.Fatal(err)
					}
					if err := resultsEqual(serial.Finalize(), parallel.Finalize()); err != nil {
						t.Fatalf("dense=%v shape=%s query=%d filter=%d: %v",
							dense, shape, qi, fi, err)
					}
				}
			}
		}
	}
}

// TestEncodedKernelToggleEquivalence pins that the encoded fast path and
// the materialized path compute bit-identical results on the same store.
func TestEncodedKernelToggleEquivalence(t *testing.T) {
	rnd := randutil.New(7)
	s := loadEncodedStore(t, encodedSchema(true), "rle", rnd)
	q := &Query{
		Aggregates: []Aggregate{{Func: Sum, Metric: "m"}, {Func: Count}, {Func: Avg, Metric: "m"}},
		GroupBy:    []string{"key"},
	}
	fast, _, err := runUnshared(s, q, 4, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	slow, _, err := runUnshared(s, q, 4, Opts{noEncodedKernels: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := resultsEqual(fast.Finalize(), slow.Finalize()); err != nil {
		t.Fatalf("encoded kernel changed results: %v", err)
	}
}

// TestProjectionBuild pins the projection compiler, including the bugfix
// this change carries: a dimension referenced only by the filter must not
// be decoded on fully covered bricks (only metrics and grouped columns
// matter there), while partially covered bricks still materialize it for
// row filtering.
func TestProjectionBuild(t *testing.T) {
	schema := encodedSchema(true)
	q := &Query{
		Aggregates: []Aggregate{{Func: Sum, Metric: "m"}},
		GroupBy:    []string{"key"},
		Filter:     map[string][2]uint32{"other": {5, 20}},
	}
	c, err := compile(schema, q, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if !c.encGroup || len(c.encGroups) != 1 || !c.encGroups[0] {
		t.Fatalf("encGroups = %v, want the single group dim encoded-eligible", c.encGroups)
	}
	if c.projFull.Dims[0] != brick.ColGroupEncoded {
		t.Fatal("group dim not requested as encoded view on full bricks")
	}
	if c.projFull.Dims[1] != brick.ColSkip {
		t.Fatal("filter-only dim decoded on fully covered bricks")
	}
	if c.proj.Dims[1] != brick.ColGroupEncoded {
		t.Fatal("filter-only dim not requested as encoded view for the skippers on partial bricks")
	}
	if c.projPartSerial.Dims[1] != brick.ColNeed {
		t.Fatal("serial reference must materialize the filter dim on partial bricks")
	}
	if c.projFullSerial.Dims[0] != brick.ColNeed {
		t.Fatal("serial path must materialize the group dim")
	}
	if !c.proj.Metrics[0] {
		t.Fatal("aggregated metric not projected")
	}
	if len(c.filterDims) != 1 || c.filterDims[0].idx != 1 || c.filterDims[0].lo != 5 || c.filterDims[0].hi != 20 {
		t.Fatalf("filterDims = %+v, want [{1 5 20}]", c.filterDims)
	}

	// CountDistinct over the group dimension disqualifies the encoded view:
	// the sketch needs the materialized values.
	qd := &Query{
		Aggregates: []Aggregate{{Func: CountDistinct, Metric: "key"}},
		GroupBy:    []string{"key"},
	}
	cd, err := compile(schema, qd, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if cd.encGroup || cd.projFull.Dims[0] != brick.ColNeed {
		t.Fatal("CountDistinct(group dim) must disable the encoded view")
	}

	// Two GROUP BY dimensions: both grouped columns arrive encoded on fully
	// covered bricks and feed the composite-key kernels.
	q2 := &Query{
		Aggregates: []Aggregate{{Func: Count}},
		GroupBy:    []string{"key", "other"},
	}
	c2, err := compile(schema, q2, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if !c2.encGroup || len(c2.encGroups) != 2 || !c2.encGroups[0] || !c2.encGroups[1] {
		t.Fatalf("encGroups = %v, want both group dims encoded-eligible", c2.encGroups)
	}
	if c2.projFull.Dims[0] != brick.ColGroupEncoded || c2.projFull.Dims[1] != brick.ColGroupEncoded {
		t.Fatal("multi-dim GROUP BY must request encoded views on full bricks")
	}

	// Mixed eligibility: CountDistinct over one grouped dim disqualifies it
	// alone; the other grouped dim stays encoded.
	q3 := &Query{
		Aggregates: []Aggregate{{Func: Count}, {Func: CountDistinct, Metric: "other"}},
		GroupBy:    []string{"key", "other"},
	}
	c3, err := compile(schema, q3, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if !c3.encGroup || !c3.encGroups[0] || c3.encGroups[1] {
		t.Fatalf("encGroups = %v, want only the non-distinct group dim encoded", c3.encGroups)
	}
	if c3.projFull.Dims[0] != brick.ColGroupEncoded || c3.projFull.Dims[1] != brick.ColNeed {
		t.Fatal("CountDistinct group dim must materialize while the other stays encoded")
	}
}

// TestMixedTierEquivalence extends the random equivalence harness across
// storage tiers: the same data queried in a randomly compacted store
// (mixed raw / encoded / SSD-evicted bricks) must produce exactly the same
// rows as the fully raw clone, and the serial and parallel paths must agree
// on the mixed store.
func TestMixedTierEquivalence(t *testing.T) {
	rnd := randutil.New(20260806)
	for trial := 0; trial < 30; trial++ {
		nDims := 1 + rnd.Intn(3)
		schema := brick.Schema{}
		for d := 0; d < nDims; d++ {
			max := uint32(4 + rnd.Intn(60))
			schema.Dimensions = append(schema.Dimensions, brick.Dimension{
				Name: fmt.Sprintf("d%d", d), Max: max, Buckets: uint32(1 + rnd.Intn(int(max)/2)),
			})
		}
		nMetrics := 1 + rnd.Intn(2)
		for m := 0; m < nMetrics; m++ {
			schema.Metrics = append(schema.Metrics, brick.Metric{Name: fmt.Sprintf("m%d", m)})
		}
		mixed, err := brick.NewStore(schema)
		if err != nil {
			t.Fatal(err)
		}
		rows := 200 + rnd.Intn(1500)
		dimVals := make([]uint32, nDims)
		metVals := make([]float64, nMetrics)
		for r := 0; r < rows; r++ {
			for d := range dimVals {
				// Mix run-friendly and random dimensions across trials.
				if d%2 == 0 {
					dimVals[d] = uint32(r * int(schema.Dimensions[d].Max) / rows)
				} else {
					dimVals[d] = uint32(rnd.Intn(int(schema.Dimensions[d].Max)))
				}
			}
			for m := range metVals {
				metVals[m] = float64(rnd.Intn(1<<16)) / 4
			}
			if err := mixed.Insert(dimVals, metVals); err != nil {
				t.Fatal(err)
			}
		}
		// Clone via Export/Import: the clone arrives fully raw.
		blob, err := mixed.Export()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := brick.NewStore(schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := raw.Import(blob); err != nil {
			t.Fatal(err)
		}
		// Drive the original into a random mixed tier state: random hotness,
		// then a few compaction passes with random thresholds.
		mixed.DecayHotness(rnd.Float64())
		cfg := brick.CompactionConfig{
			EncodeBelow: rnd.Float64() * 20,
			EvictBelow:  rnd.Float64() * 10,
		}
		passes := 1 + rnd.Intn(3)
		for i := 0; i < passes; i++ {
			if _, err := mixed.CompactOnce(cfg); err != nil {
				t.Fatal(err)
			}
		}

		q := &Query{Aggregates: []Aggregate{
			{Func: Sum, Metric: "m0"}, {Func: Count},
			{Func: Min, Metric: "m0"}, {Func: Max, Metric: "m0"},
		}}
		q.GroupBy = []string{schema.Dimensions[rnd.Intn(nDims)].Name}
		if rnd.Bernoulli(0.5) {
			d := schema.Dimensions[rnd.Intn(nDims)]
			lo := uint32(rnd.Intn(int(d.Max)))
			hi := lo + uint32(rnd.Intn(int(d.Max-lo)))
			q.Filter = map[string][2]uint32{d.Name: {lo, hi}}
		}

		serialMixed, err := Execute(mixed, q)
		if err != nil {
			t.Fatal(err)
		}
		parallelMixed, _, err := runUnshared(mixed, q, 4, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		// Serial and parallel agree fully on the mixed store (including
		// observability counters).
		if err := resultsEqual(serialMixed.Finalize(), parallelMixed.Finalize()); err != nil {
			t.Fatalf("trial %d mixed serial vs parallel: %v", trial, err)
		}
		// The mixed store answers match the raw clone's rows exactly
		// (decompression counters legitimately differ between the stores).
		parallelRaw, _, err := runUnshared(raw, q, 4, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		a, b := parallelMixed.Finalize(), parallelRaw.Finalize()
		if len(a.Rows) != len(b.Rows) {
			t.Fatalf("trial %d: %d rows vs %d raw", trial, len(a.Rows), len(b.Rows))
		}
		for i := range a.Rows {
			for j := range a.Rows[i] {
				if a.Rows[i][j] != b.Rows[i][j] {
					t.Fatalf("trial %d row %d col %d: %v vs %v (tiers changed the answer)",
						trial, i, j, a.Rows[i][j], b.Rows[i][j])
				}
			}
		}
	}
}
