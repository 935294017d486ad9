package netexec

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"cubrick/internal/core"
	"cubrick/internal/engine"
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
