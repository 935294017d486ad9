package netexec

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"cubrick/internal/core"
	"cubrick/internal/engine"
	"cubrick/internal/metrics"
	"cubrick/internal/partition"
)

// TestResultCacheAcrossOwnershipFlip pins the migration/result-cache
// contract: a cached result is keyed to the old placement's epoch vector,
// so after an ownership flip it must revalidate against the new owner or
// miss — never serve stale rows. The new owner here holds MORE rows than
// the source did when the result was cached; a stale serve would return
// the old sum.
func TestResultCacheAcrossOwnershipFlip(t *testing.T) {
	cluster, _, cleanup := startCachingCluster(t, 2, 600)
	defer cleanup()
	ctx := context.Background()
	coord := cluster.Coordinator()

	q := &engine.Query{
		Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value", Alias: "total"}, {Func: engine.Count, Alias: "n"}},
	}
	cold, err := cluster.Query(ctx, "events", q)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := cluster.Query(ctx, "events", q)
	if err != nil {
		t.Fatal(err)
	}
	if err := resultRowsEqual(cold, warm); err != nil {
		t.Fatal(err)
	}
	if st := coord.ResultCache.Stats(); st.Hits != 1 {
		t.Fatalf("warm query hits = %d, want 1", st.Hits)
	}

	// Hand-run a migration of partition 0 to a joiner: snapshot-ship the
	// bricks, then land extra rows ONLY on the new owner — the divergence
	// a stale cached result would hide.
	joiner := httptest.NewServer(NewWorker(partition.Config{}).Handler())
	defer joiner.Close()
	if !cluster.AddWorker(joiner.URL) {
		t.Fatal("joiner not added")
	}
	part := core.PartitionName("events", 0)
	urls, _, err := cluster.PartitionPlacement("events", 0)
	if err != nil {
		t.Fatal(err)
	}
	src := &Client{BaseURL: urls[0]}
	dst := &Client{BaseURL: joiner.URL}
	schema, err := src.PartitionSchema(ctx, part)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.CreatePartition(ctx, part, schema); err != nil {
		t.Fatal(err)
	}
	blob, covered, err := src.Export(ctx, part, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.ImportBricks(ctx, part, blob, covered); err != nil {
		t.Fatal(err)
	}
	const extra = 90
	var extraSum float64
	dims := make([][]uint32, extra)
	mets := make([][]float64, extra)
	for i := 0; i < extra; i++ {
		dims[i] = []uint32{uint32(i) % 30, uint32(i) % 20}
		mets[i] = []float64{float64(i)}
		extraSum += float64(i)
	}
	if _, err := dst.Load(ctx, part, dims, mets); err != nil {
		t.Fatal(err)
	}

	// The flip: reroute, open the dual-read window, reset the known
	// epoch, and invalidate every cached result the partition fed.
	cluster.MovePartition(part, []string{joiner.URL}, 200*time.Millisecond)
	if st := coord.ResultCache.Stats(); st.Invalidations == 0 {
		t.Fatal("flip invalidated nothing")
	}

	after, err := cluster.Query(ctx, "events", q)
	if err != nil {
		t.Fatal(err)
	}
	wantSum := warm.Rows[0][0] + extraSum
	wantN := warm.Rows[0][1] + extra
	if after.Rows[0][0] != wantSum || after.Rows[0][1] != wantN {
		t.Fatalf("post-flip result (sum=%v n=%v) served stale data, want sum=%v n=%v",
			after.Rows[0][0], after.Rows[0][1], wantSum, wantN)
	}
	if st := coord.ResultCache.Stats(); st.Hits != 1 {
		t.Fatalf("post-flip query hit the stale cache (hits=%d)", st.Hits)
	}

	// The recomputed result re-caches against the NEW owner's epochs and
	// serves hits again.
	again, err := cluster.Query(ctx, "events", q)
	if err != nil {
		t.Fatal(err)
	}
	if err := resultRowsEqual(after, again); err != nil {
		t.Fatal(err)
	}
	if st := coord.ResultCache.Stats(); st.Hits != 2 {
		t.Fatalf("re-cached result did not hit (hits=%d)", st.Hits)
	}
}

// TestFirstMoveOpensDualReadWindow: a partition's first move — away from
// its static placement, with no earlier override — keeps the static owner
// as the previous placement, so a query inside the window reads both and
// returns the fresher owner's rows. Here the old owner took a batch the
// new one never received (the flip raced the final delta); a query routed
// to the new owner alone would miss it.
func TestFirstMoveOpensDualReadWindow(t *testing.T) {
	const rows = 600
	cluster, _, cleanup := startCachingCluster(t, 2, rows)
	defer cleanup()
	ctx := context.Background()
	coord := cluster.Coordinator()
	reg := metrics.NewRegistry()
	coord.Metrics = reg

	joiner := httptest.NewServer(NewWorker(partition.Config{}).Handler())
	defer joiner.Close()
	if !cluster.AddWorker(joiner.URL) {
		t.Fatal("joiner not added")
	}
	part := core.PartitionName("events", 0)
	static, dual, err := cluster.PartitionPlacement("events", 0)
	if err != nil || dual != nil {
		t.Fatalf("placement before the move: %v, dual %v", err, dual)
	}
	src := &Client{BaseURL: static[0]}
	dst := &Client{BaseURL: joiner.URL}
	if err := dst.CreatePartition(ctx, part, testSchema()); err != nil {
		t.Fatal(err)
	}
	blob, covered, err := src.Export(ctx, part, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.ImportBricks(ctx, part, blob, covered); err != nil {
		t.Fatal(err)
	}
	const late = 7
	if _, err := src.Load(ctx, part, [][]uint32{{1, 1}}, [][]float64{{late}}); err != nil {
		t.Fatal(err)
	}

	cluster.MovePartition(part, []string{joiner.URL}, time.Minute)
	urls, dual, err := cluster.PartitionPlacement("events", 0)
	if err != nil || len(urls) != 1 || urls[0] != joiner.URL || len(dual) != len(static) || dual[0] != static[0] {
		t.Fatalf("placement after a first move: %v, dual %v (err %v), want [%s] dual %v", urls, dual, err, joiner.URL, static)
	}
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value"}, {Func: engine.Count}}}
	res, err := cluster.Query(ctx, "events", q)
	if err != nil {
		t.Fatal(err)
	}
	wantSum := float64(rows*(rows-1)/2 + late)
	if res.Rows[0][0] != wantSum || res.Rows[0][1] != rows+1 {
		t.Fatalf("in-window query (sum=%v n=%v) missed the old owner's batch, want sum=%v n=%d",
			res.Rows[0][0], res.Rows[0][1], wantSum, rows+1)
	}
	if c := reg.CounterValues(); c["netexec.fetch.dualreads"] != 1 || c["netexec.fetch.dual_wins"] != 1 {
		t.Fatalf("dualreads = %d, dual_wins = %d, want 1 and 1", c["netexec.fetch.dualreads"], c["netexec.fetch.dual_wins"])
	}
}
