package rollup

import (
	"math"
	"testing"

	"cubrick/internal/brick"
)

var testSchema = brick.Schema{
	Dimensions: []brick.Dimension{
		{Name: "ds", Max: 32, Buckets: 4},
		{Name: "region", Max: 4, Buckets: 2},
		{Name: "app", Max: 8, Buckets: 4},
	},
	Metrics: []brick.Metric{{Name: "value"}, {Name: "latency"}},
}

func testConfig() Config {
	return Config{
		TimeDim: "ds", Bucket: 4,
		Dims:         []string{"region"},
		DistinctDims: []string{"app"},
	}
}

func newTestTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := New(testSchema, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func newTestStore(t *testing.T) *brick.Store {
	t.Helper()
	st, err := brick.NewStore(testSchema)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func insert(t *testing.T, st *brick.Store, ds, region, app uint32, value, latency float64) {
	t.Helper()
	if err := st.Insert([]uint32{ds, region, app}, []float64{value, latency}); err != nil {
		t.Fatal(err)
	}
}

// collect snapshots the group state into a comparable form.
type flatGroup struct {
	start    uint32
	dims     string
	rows     int64
	metrics  []MetricAgg
	distinct []float64
}

func collect(t *testing.T, tbl *Table) []flatGroup {
	t.Helper()
	var out []flatGroup
	err := tbl.Visit(func(g *Group) error {
		fg := flatGroup{
			start:   g.Start,
			dims:    key(0, g.Dims),
			rows:    g.Rows,
			metrics: append([]MetricAgg(nil), g.Metrics...),
		}
		for _, sk := range g.Sketches {
			fg.distinct = append(fg.distinct, sk.Estimate())
		}
		out = append(out, fg)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func groupsEqual(a, b []flatGroup) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.start != y.start || x.dims != y.dims || x.rows != y.rows {
			return false
		}
		for m := range x.metrics {
			if x.metrics[m] != y.metrics[m] {
				return false
			}
		}
		for s := range x.distinct {
			if x.distinct[s] != y.distinct[s] {
				return false
			}
		}
	}
	return true
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero bucket", Config{TimeDim: "ds", Bucket: 0}},
		{"unknown time dim", Config{TimeDim: "nope", Bucket: 1}},
		{"unknown rollup dim", Config{TimeDim: "ds", Bucket: 1, Dims: []string{"nope"}}},
		{"duplicate rollup dim", Config{TimeDim: "ds", Bucket: 1, Dims: []string{"region", "region"}}},
		{"time dim as rollup dim", Config{TimeDim: "ds", Bucket: 1, Dims: []string{"ds"}}},
		{"unknown distinct dim", Config{TimeDim: "ds", Bucket: 1, DistinctDims: []string{"nope"}}},
		{"duplicate distinct dim", Config{TimeDim: "ds", Bucket: 1, DistinctDims: []string{"app", "app"}}},
	}
	for _, tc := range cases {
		if _, err := New(testSchema, tc.cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if _, err := New(brick.Schema{}, testConfig()); err == nil {
		t.Error("invalid schema: expected error")
	}
	tbl := newTestTable(t)
	if got := tbl.Config().TimeDim; got != "ds" {
		t.Fatalf("Config().TimeDim = %q", got)
	}
	if got := len(tbl.Schema().Metrics); got != 2 {
		t.Fatalf("Schema() metrics = %d", got)
	}
	if got := tbl.BucketStart(7); got != 4 {
		t.Fatalf("BucketStart(7) = %d, want 4", got)
	}
}

func TestCatchUpFoldsExactAggregates(t *testing.T) {
	tbl, st := newTestTable(t), newTestStore(t)
	// Two rows in bucket [0,3] region 1, one in bucket [4,7] region 1.
	insert(t, st, 1, 1, 2, 10, 100)
	insert(t, st, 3, 1, 5, -4, 50)
	insert(t, st, 5, 1, 2, 7, 25)
	epoch, err := tbl.CatchUp(st)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != st.Epoch() {
		t.Fatalf("covered epoch %d, store at %d", epoch, st.Epoch())
	}
	if tbl.CoveredEpoch() != epoch {
		t.Fatalf("CoveredEpoch %d != %d", tbl.CoveredEpoch(), epoch)
	}
	gs := collect(t, tbl)
	if len(gs) != 2 {
		t.Fatalf("got %d groups, want 2", len(gs))
	}
	g0 := gs[0]
	if g0.start != 0 || g0.rows != 2 {
		t.Fatalf("bucket 0: start=%d rows=%d", g0.start, g0.rows)
	}
	if m := g0.metrics[0]; m.Sum != 6 || m.Min != -4 || m.Max != 10 {
		t.Fatalf("bucket 0 value agg = %+v", m)
	}
	if m := g0.metrics[1]; m.Sum != 150 || m.Min != 50 || m.Max != 100 {
		t.Fatalf("bucket 0 latency agg = %+v", m)
	}
	if d := g0.distinct[0]; math.Abs(d-2) > 0.1 {
		t.Fatalf("bucket 0 distinct apps = %g, want ~2", d)
	}
	// Incremental: a second catch-up folds only the rows above the marks.
	insert(t, st, 2, 1, 2, 1, 1)
	if _, err := tbl.CatchUp(st); err != nil {
		t.Fatal(err)
	}
	s := tbl.Stats()
	if s.FoldedRows != 4 {
		t.Fatalf("FoldedRows = %d, want 4 (no refolds)", s.FoldedRows)
	}
	if s.Catchups != 2 || s.Rebuilds != 0 || s.Groups != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCatchUpRebuildsOnGenerationChange(t *testing.T) {
	tbl, st := newTestTable(t), newTestStore(t)
	insert(t, st, 1, 0, 0, 5, 5)
	if _, err := tbl.CatchUp(st); err != nil {
		t.Fatal(err)
	}
	before := collect(t, tbl)
	// A self-import replaces every brick: same rows, new generation —
	// the watermarks no longer describe the bricks and must be voided.
	blob, err := st.Export()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Import(blob); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CatchUp(st); err != nil {
		t.Fatal(err)
	}
	if s := tbl.Stats(); s.Rebuilds == 0 {
		t.Fatal("generation change did not force a rebuild")
	}
	if after := collect(t, tbl); !groupsEqual(before, after) {
		t.Fatal("rebuild changed the group state over identical rows")
	}
}

func TestServeWindowAndMarks(t *testing.T) {
	tbl, st := newTestTable(t), newTestStore(t)
	for ds := uint32(0); ds < 16; ds++ {
		insert(t, st, ds, ds%2, 0, float64(ds), 0)
	}
	// Serve buckets starting in [4, 8]: starts 4 and 8 only.
	var starts []uint32
	info, err := tbl.Serve(st, 4, 8, func(g *Group) error {
		starts = append(starts, g.Start)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Groups != len(starts) {
		t.Fatalf("info.Groups = %d, streamed %d", info.Groups, len(starts))
	}
	for i, s := range starts {
		if s != 4 && s != 8 {
			t.Fatalf("group %d start %d outside [4,8]", i, s)
		}
		if i > 0 && starts[i-1] > s {
			t.Fatal("groups not in sorted key order")
		}
	}
	// Serve catches up under the same lock: its marks account for all 16
	// rows even though CatchUp was never called explicitly.
	total := 0
	for _, m := range info.Marks {
		total += m
	}
	if total != 16 {
		t.Fatalf("marks cover %d rows, want 16", total)
	}
	if info.Epoch != st.Epoch() {
		t.Fatalf("serve epoch %d, store at %d", info.Epoch, st.Epoch())
	}
	// The returned marks are a copy: mutating them must not corrupt the
	// table.
	for id := range info.Marks {
		info.Marks[id] = 0
	}
	info2, err := tbl.Serve(st, 0, 16, func(*Group) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if info2.Groups == 0 {
		t.Fatal("expected groups in full window")
	}
}

func TestIngestObserverKeepsTableFresh(t *testing.T) {
	tbl, st := newTestTable(t), newTestStore(t)
	st.SetIngestObserver(func() { _, _ = tbl.CatchUp(st) })
	insert(t, st, 1, 1, 1, 3, 3)
	if tbl.CoveredEpoch() != st.Epoch() {
		t.Fatalf("observer left table at epoch %d, store at %d", tbl.CoveredEpoch(), st.Epoch())
	}
	if s := tbl.Stats(); s.FoldedRows != 1 {
		t.Fatalf("FoldedRows = %d, want 1", s.FoldedRows)
	}
}
