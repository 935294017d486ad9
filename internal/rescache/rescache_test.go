package rescache

import (
	"reflect"
	"testing"

	"cubrick/internal/engine"
	"cubrick/internal/metrics"
)

func sampleResult() *engine.Result {
	return &engine.Result{
		Columns:     []string{"region", "sum(value)"},
		Rows:        [][]float64{{1, 10}, {2, 20}},
		RowsScanned: 4,
		Coverage:    1,
	}
}

func vec(pairs ...any) map[string]uint64 {
	m := make(map[string]uint64)
	for i := 0; i < len(pairs); i += 2 {
		m[pairs[i].(string)] = pairs[i+1].(uint64)
	}
	return m
}

func fixed(epochs map[string]uint64) func(string) (uint64, bool) {
	return func(p string) (uint64, bool) {
		e, ok := epochs[p]
		return e, ok
	}
}

func TestHitReturnsDeepCopy(t *testing.T) {
	c := New(1 << 20)
	k := Key{Table: "t", FoldKey: "f", Residue: "r"}
	ev := vec("p0", uint64(3))
	c.Put(k, sampleResult(), ev)

	got, ok := c.Get(k, fixed(ev))
	if !ok {
		t.Fatal("expected hit")
	}
	if !reflect.DeepEqual(got, sampleResult()) {
		t.Fatalf("cached result mismatch: %+v", got)
	}
	// Mutating what we got back must not poison the cache.
	got.Rows[0][1] = -1
	got.Columns[0] = "mutated"
	again, ok := c.Get(k, fixed(ev))
	if !ok {
		t.Fatal("expected second hit")
	}
	if !reflect.DeepEqual(again, sampleResult()) {
		t.Fatalf("cache poisoned by caller mutation: %+v", again)
	}
}

// TestHitRowsOwnTheirCells: a copy's rows share one backing array, each
// capped at its own length, so appending to one row cannot overwrite the
// next.
func TestHitRowsOwnTheirCells(t *testing.T) {
	c := New(1 << 20)
	k := Key{Table: "t", FoldKey: "f", Residue: "r"}
	ev := vec("p0", uint64(3))
	c.Put(k, sampleResult(), ev)
	got, ok := c.Get(k, fixed(ev))
	if !ok {
		t.Fatal("expected hit")
	}
	_ = append(got.Rows[0], -1)
	if want := sampleResult(); !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("appending to row 0 changed the rows: %v, want %v", got.Rows, want.Rows)
	}
}

// Regression: two queries sharing a fold key (same aggregates, grouping,
// filter) but differing in residue (LIMIT here) must never collide in the
// result cache.
func TestResidueKeysQueriesApart(t *testing.T) {
	q1 := &engine.Query{
		Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value"}},
		GroupBy:    []string{"region"},
		OrderBy:    "sum(value)",
		Desc:       true,
		Limit:      5,
	}
	q2 := &engine.Query{
		Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value"}},
		GroupBy:    []string{"region"},
		OrderBy:    "sum(value)",
		Desc:       true,
		Limit:      500,
	}
	if engine.FoldKey(q1) != engine.FoldKey(q2) {
		t.Fatal("test premise broken: queries should share a fold key")
	}
	k1, k2 := KeyFor("t", q1), KeyFor("t", q2)
	if k1 == k2 {
		t.Fatal("keys collide despite differing LIMIT")
	}

	c := New(1 << 20)
	ev := vec("p0", uint64(1))
	top5 := &engine.Result{Columns: []string{"region", "sum(value)"}, Rows: [][]float64{{1, 10}}, Coverage: 1}
	c.Put(k1, top5, ev)
	if _, ok := c.Get(k2, fixed(ev)); ok {
		t.Fatal("LIMIT 500 query hit the LIMIT 5 entry")
	}
	got, ok := c.Get(k1, fixed(ev))
	if !ok || len(got.Rows) != 1 {
		t.Fatalf("LIMIT 5 entry lost: ok=%v got=%+v", ok, got)
	}
}

func TestEpochMismatchInvalidates(t *testing.T) {
	c := New(1 << 20)
	k := Key{Table: "t", FoldKey: "f", Residue: "r"}
	c.Put(k, sampleResult(), vec("p0", uint64(3), "p1", uint64(7)))

	// p1 ingested: epoch advanced 7 -> 9.
	cur := fixed(vec("p0", uint64(3), "p1", uint64(9)))
	if _, ok := c.Get(k, cur); ok {
		t.Fatal("stale entry served after partition epoch advanced")
	}
	st := c.Stats()
	if st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
	if st.Entries != 0 {
		t.Fatalf("stale entry not deleted: entries = %d", st.Entries)
	}
	// Even with the original vector the entry is gone (no resurrection).
	if _, ok := c.Get(k, fixed(vec("p0", uint64(3), "p1", uint64(7)))); ok {
		t.Fatal("deleted entry resurrected")
	}
}

func TestUnknownEpochMissesWithoutDeleting(t *testing.T) {
	c := New(1 << 20)
	k := Key{Table: "t", FoldKey: "f", Residue: "r"}
	ev := vec("p0", uint64(3))
	c.Put(k, sampleResult(), ev)

	if _, ok := c.Get(k, func(string) (uint64, bool) { return 0, false }); ok {
		t.Fatal("unverifiable entry served")
	}
	if c.Stats().Entries != 1 {
		t.Fatal("unverifiable entry deleted; it may validate later")
	}
	if _, ok := c.Get(k, fixed(ev)); !ok {
		t.Fatal("entry should still hit once epochs are known again")
	}
}

func TestDegradedResultsNotCached(t *testing.T) {
	c := New(1 << 20)
	k := Key{Table: "t", FoldKey: "f", Residue: "r"}
	r := sampleResult()
	r.Coverage = 0.75
	r.MissingPartitions = []string{"p3"}
	c.Put(k, r, vec("p0", uint64(1)))
	if c.Stats().Entries != 0 {
		t.Fatal("Coverage < 1 result was cached")
	}
}

func TestEvictionHonorsByteBudget(t *testing.T) {
	small := New(600)
	ev := vec("p0", uint64(1))
	for i := 0; i < 10; i++ {
		k := Key{Table: "t", FoldKey: string(rune('a' + i)), Residue: "r"}
		small.Put(k, sampleResult(), ev)
	}
	st := small.Stats()
	if st.Bytes > 600 {
		t.Fatalf("bytes %d over budget", st.Bytes)
	}
	if st.Entries == 0 || st.Evictions == 0 {
		t.Fatalf("expected retained entries and evictions, got %+v", st)
	}
	// Oversized entries are rejected outright.
	big := &engine.Result{Columns: []string{"c"}, Rows: make([][]float64, 100), Coverage: 1}
	for i := range big.Rows {
		big.Rows[i] = make([]float64, 8)
	}
	before := small.Stats().Entries
	small.Put(Key{Table: "t", FoldKey: "huge", Residue: "r"}, big, ev)
	if small.Stats().Entries != before {
		t.Fatal("oversized entry admitted")
	}
}

func TestInvalidatePartition(t *testing.T) {
	c := New(1 << 20)
	c.Put(Key{Table: "t", FoldKey: "a", Residue: ""}, sampleResult(), vec("p0", uint64(1)))
	c.Put(Key{Table: "t", FoldKey: "b", Residue: ""}, sampleResult(), vec("p1", uint64(1)))
	c.Put(Key{Table: "t", FoldKey: "c", Residue: ""}, sampleResult(), vec("p0", uint64(2), "p1", uint64(1)))
	c.Invalidate("p0")
	st := c.Stats()
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 (only the p1-only entry survives)", st.Entries)
	}
	if st.Invalidations != 2 {
		t.Fatalf("invalidations = %d, want 2", st.Invalidations)
	}
}

func TestNilCacheSafe(t *testing.T) {
	var c *Cache
	c.Put(Key{}, sampleResult(), nil)
	if _, ok := c.Get(Key{}, fixed(nil)); ok {
		t.Fatal("nil cache hit")
	}
	c.Invalidate("p0")
	c.SetMetrics(metrics.NewRegistry())
	if c.Stats() != (Stats{}) {
		t.Fatal("nil cache stats not zero")
	}
	if New(0) != nil || New(-5) != nil {
		t.Fatal("non-positive budget should disable the cache")
	}
}

func TestMetricsWired(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(1 << 20)
	c.SetMetrics(reg)
	k := Key{Table: "t", FoldKey: "f", Residue: "r"}
	ev := vec("p0", uint64(1))
	c.Get(k, fixed(ev)) // miss
	c.Put(k, sampleResult(), ev)
	c.Get(k, fixed(ev))                   // hit
	c.Get(k, fixed(vec("p0", uint64(2)))) // invalidate + miss
	vals := reg.CounterValues()
	if vals["cache.result.hit"] != 1 || vals["cache.result.miss"] != 2 || vals["cache.result.invalidate"] != 1 {
		t.Fatalf("counter values: %v", vals)
	}
}

func TestSortedPartitions(t *testing.T) {
	got := SortedPartitions(vec("b", uint64(1), "a", uint64(2), "c", uint64(3)))
	if !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("got %v", got)
	}
}
