package netexec

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"cubrick/internal/engine"
	"cubrick/internal/partition"
	"cubrick/internal/rescache"
)

// countingHandler wraps a worker handler and counts /partial requests so
// tests can assert that a result-cache hit produced zero fan-out.
func countingHandler(h http.Handler, partials *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/partial") {
			partials.Add(1)
		}
		h.ServeHTTP(rw, r)
	})
}

// startCachingCluster spins n workers (brick + decoded caches enabled) behind
// counting handlers and a coordinator with a result cache, loading rows
// round-robin through Cluster.Load so the coordinator learns ingest epochs.
func startCachingCluster(t *testing.T, n, rows int) (*Cluster, *atomic.Int64, func()) {
	t.Helper()
	var partials atomic.Int64
	var servers []*httptest.Server
	var urls []string
	for i := 0; i < n; i++ {
		w := NewWorker(partition.Config{BrickCacheBytes: 4 << 20, DecodedCacheBytes: 4 << 20})
		srv := httptest.NewServer(countingHandler(w.Handler(), &partials))
		servers = append(servers, srv)
		urls = append(urls, srv.URL)
	}
	cluster, err := NewCluster(urls, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	cluster.Coordinator().ResultCache = rescache.New(16 << 20)
	ctx := context.Background()
	if err := cluster.CreateTable(ctx, "events", testSchema(), n); err != nil {
		t.Fatal(err)
	}
	dims := make([][]uint32, rows)
	mets := make([][]float64, rows)
	for i := 0; i < rows; i++ {
		dims[i] = []uint32{uint32(i) % 30, uint32(i) % 20}
		mets[i] = []float64{float64(i)}
	}
	if err := cluster.Load(ctx, "events", dims, mets); err != nil {
		t.Fatal(err)
	}
	cleanup := func() {
		for _, s := range servers {
			s.Close()
		}
	}
	return cluster, &partials, cleanup
}

// TestResultCacheHitZeroFanout: a repeated query must be answered entirely
// from the coordinator's result cache — identical rows, no /partial traffic —
// and ingest through the coordinator must invalidate it exactly.
func TestResultCacheHitZeroFanout(t *testing.T) {
	cluster, partials, cleanup := startCachingCluster(t, 3, 900)
	defer cleanup()
	ctx := context.Background()
	coord := cluster.Coordinator()
	targets, err := cluster.Targets("events")
	if err != nil {
		t.Fatal(err)
	}
	q := &engine.Query{
		Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value"}, {Func: engine.Count}},
		GroupBy:    []string{"app"},
	}

	cold, err := coord.Query(ctx, targets, q)
	if err != nil {
		t.Fatal(err)
	}
	coldFanout := partials.Load()
	if coldFanout == 0 {
		t.Fatal("cold query produced no fan-out")
	}

	warm, err := coord.Query(ctx, targets, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := partials.Load(); got != coldFanout {
		t.Fatalf("warm query fanned out: %d partial requests after hit (was %d)", got, coldFanout)
	}
	if err := resultRowsEqual(cold, warm); err != nil {
		t.Fatalf("cached result differs: %v", err)
	}
	st := coord.ResultCache.Stats()
	if st.Hits != 1 {
		t.Fatalf("result cache hits = %d, want 1", st.Hits)
	}

	// Ingest through the coordinator bumps the partitions' epochs; the next
	// query must detect the stale vector, fan out again, and see the new row.
	if err := cluster.Load(ctx, "events", [][]uint32{{0, 0}}, [][]float64{{1e6}}); err != nil {
		t.Fatal(err)
	}
	fresh, err := coord.Query(ctx, targets, q)
	if err != nil {
		t.Fatal(err)
	}
	if partials.Load() == coldFanout {
		t.Fatal("post-ingest query served from cache — stale result")
	}
	// Column 0 is the "app" group key; column 1 is sum(value).
	var coldSum, freshSum float64
	for _, r := range cold.Rows {
		coldSum += r[1]
	}
	for _, r := range fresh.Rows {
		freshSum += r[1]
	}
	if freshSum != coldSum+1e6 {
		t.Fatalf("post-ingest sum %v, want %v", freshSum, coldSum+1e6)
	}
}

// TestResultCacheResidueE2E: two queries sharing a fold key but differing
// in residue (LIMIT) must occupy distinct cache entries — the LIMIT 2
// answer may never be served for the LIMIT 20 query or vice versa.
func TestResultCacheResidueE2E(t *testing.T) {
	cluster, _, cleanup := startCachingCluster(t, 2, 600)
	defer cleanup()
	ctx := context.Background()
	coord := cluster.Coordinator()
	targets, err := cluster.Targets("events")
	if err != nil {
		t.Fatal(err)
	}
	base := engine.Query{
		Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value"}},
		GroupBy:    []string{"app"},
		OrderBy:    "sum(value)",
		Desc:       true,
	}
	small, big := base, base
	small.Limit = 2
	big.Limit = 20
	if engine.FoldKey(&small) != engine.FoldKey(&big) {
		t.Fatal("test premise broken: LIMIT variants should share a fold key")
	}

	smallRes, err := coord.Query(ctx, targets, &small)
	if err != nil {
		t.Fatal(err)
	}
	bigRes, err := coord.Query(ctx, targets, &big)
	if err != nil {
		t.Fatal(err)
	}
	if len(smallRes.Rows) != 2 || len(bigRes.Rows) != 20 {
		t.Fatalf("row counts %d/%d, want 2/20", len(smallRes.Rows), len(bigRes.Rows))
	}
	// Replay both from cache; lengths must still differ.
	smallRes2, err := coord.Query(ctx, targets, &small)
	if err != nil {
		t.Fatal(err)
	}
	bigRes2, err := coord.Query(ctx, targets, &big)
	if err != nil {
		t.Fatal(err)
	}
	if len(smallRes2.Rows) != 2 || len(bigRes2.Rows) != 20 {
		t.Fatalf("cached row counts %d/%d, want 2/20 — residue collision", len(smallRes2.Rows), len(bigRes2.Rows))
	}
	if st := coord.ResultCache.Stats(); st.Hits != 2 {
		t.Fatalf("hits = %d, want 2", st.Hits)
	}
}

// TestCacheBypassHeader: WithCacheBypass must skip the result cache on the
// coordinator and disable worker caches for that request, while leaving the
// cached entry intact for later non-bypassed queries.
func TestCacheBypassHeader(t *testing.T) {
	cluster, partials, cleanup := startCachingCluster(t, 2, 400)
	defer cleanup()
	ctx := context.Background()
	coord := cluster.Coordinator()
	targets, err := cluster.Targets("events")
	if err != nil {
		t.Fatal(err)
	}
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}

	first, err := coord.Query(ctx, targets, q)
	if err != nil {
		t.Fatal(err)
	}
	base := partials.Load()

	// Bypassed: must fan out despite the warm entry, and not disturb it.
	bypassed, err := coord.Query(WithCacheBypass(ctx), targets, q)
	if err != nil {
		t.Fatal(err)
	}
	if partials.Load() == base {
		t.Fatal("bypassed query did not fan out")
	}
	if err := resultRowsEqual(first, bypassed); err != nil {
		t.Fatalf("bypassed result differs: %v", err)
	}

	// The original entry must still serve hits.
	afterBypass := partials.Load()
	if _, err := coord.Query(ctx, targets, q); err != nil {
		t.Fatal(err)
	}
	if partials.Load() != afterBypass {
		t.Fatal("entry lost after bypass: follow-up query fanned out")
	}
	if st := coord.ResultCache.Stats(); st.Hits != 1 {
		t.Fatalf("hits = %d, want 1", st.Hits)
	}
}

func resultRowsEqual(a, b *engine.Result) error {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("row counts %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return fmt.Errorf("row %d widths %d vs %d", i, len(a.Rows[i]), len(b.Rows[i]))
		}
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				return fmt.Errorf("row %d col %d: %v vs %v", i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
	return nil
}
