package netexec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"cubrick/internal/brick"
	"cubrick/internal/engine"
	"cubrick/internal/metrics"
	"cubrick/internal/partition"
)

// TestFanoutReusesConnections drives 50 fan-out-16 queries, two at a time,
// at two workers holding eight partitions each — sixteen calls in flight
// per host — and counts dials with http.Server.ConnState. The pool must
// keep every connection the first queries opened: once warm, a query dials
// nothing. (A pool capped at the worker count kept 4 per host and re-dialled
// the other 12 on every query.)
func TestFanoutReusesConnections(t *testing.T) {
	const workers, partsPerWorker, queries, clients = 2, 8, 50, 2
	var dials atomic.Int64
	var targets []Target
	for w := 0; w < workers; w++ {
		wk := NewWorker(partition.Config{})
		srv := httptest.NewUnstartedServer(wk.Handler())
		srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				dials.Add(1)
			}
		}
		srv.Start()
		defer srv.Close()
		cl := &Client{BaseURL: srv.URL}
		for p := 0; p < partsPerWorker; p++ {
			part := fmt.Sprintf("t#%d", w*partsPerWorker+p)
			if err := cl.CreatePartition(context.Background(), part, testSchema()); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Load(context.Background(), part, [][]uint32{{uint32(p), 1}}, [][]float64{{1}}); err != nil {
				t.Fatal(err)
			}
			targets = append(targets, Target{URL: srv.URL, Partition: part})
		}
	}
	coord := NewCoordinator()
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	run := func(n int) {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					res, err := coord.Query(context.Background(), targets, q)
					if err != nil {
						t.Error(err)
						return
					}
					if res.Rows[0][0] != workers*partsPerWorker {
						t.Errorf("count = %v", res.Rows[0][0])
					}
				}
			}()
		}
		wg.Wait()
	}
	dials.Store(0) // set-up used admin connections of its own
	run(1)
	warm := dials.Load()
	if max := int64(clients * workers * partsPerWorker); warm > max {
		t.Fatalf("first queries opened %d connections, at most %d were needed", warm, max)
	}
	run(queries/clients - 1)
	// Both clients rarely peak together in the warm-up round, so a later
	// round may still open the few connections the first did not need.
	if extra := dials.Load() - warm; extra > int64(clients*workers*partsPerWorker)-warm+2 {
		t.Fatalf("%d connections dialled after the first queries (%d then): the idle pool does not fit the fan-out",
			extra, warm)
	}
}

// TestWorkerPartitionLifecycle: a partition that was ingested into and
// queried (rollup-served and raw) leaves nothing on the worker once
// dropped, by POST /droppart or Worker.RemovePartition alike — no set
// entry, no rollup table, no fence — and a partition re-created under the
// same name plans from its own bricks only, over a fresh rollup table.
func TestWorkerPartitionLifecycle(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		drop func(*Worker, *Client) error
	}{
		{"droppart", func(_ *Worker, cl *Client) error { return cl.DropPartition(ctx, "t#0") }},
		{"RemovePartition", func(wk *Worker, _ *Client) error {
			if !wk.RemovePartition("t#0") {
				return errors.New("RemovePartition reported nothing dropped")
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			wk := NewWorker(partition.Config{RollupTimeDim: "ds", RollupBucket: 5, Metrics: reg})
			srv := httptest.NewServer(wk.Handler())
			defer srv.Close()
			cl := &Client{BaseURL: srv.URL}
			load := func(rows int) {
				t.Helper()
				if err := cl.CreatePartition(ctx, "t#0", testSchema()); err != nil {
					t.Fatal(err)
				}
				dims, mets := make([][]uint32, rows), make([][]float64, rows)
				for i := range dims {
					dims[i], mets[i] = []uint32{uint32(i) % 30, uint32(i/30) % 20}, []float64{1}
				}
				if _, err := cl.Load(ctx, "t#0", dims, mets); err != nil {
					t.Fatal(err)
				}
			}
			count := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
			ragged := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}, Filter: map[string][2]uint32{"ds": {3, 3}}}
			targets := []Target{{URL: srv.URL, Partition: "t#0"}}
			load(600) // every one of the 24 bricks
			res, err := (&Coordinator{}).Query(ctx, targets, count)
			if err != nil || res.Rows[0][0] != 600 {
				t.Fatalf("rollup-served count: %v, %+v", err, res)
			}
			res, err = (&Coordinator{}).Query(ctx, targets, ragged)
			if err != nil || res.Rows[0][0] != 20 || res.BricksVisited != 4 {
				t.Fatalf("raw count: %v, %+v", err, res)
			}
			if c := reg.CounterValues(); c["worker.rollup.hits"] != 1 || c["worker.rollup.misses"] != 1 {
				t.Fatalf("rollup hits/misses = %d/%d, want 1/1", c["worker.rollup.hits"], c["worker.rollup.misses"])
			}
			old := wk.Parts().RollupTable("t#0")
			if old == nil || old.CoveredEpoch() == 0 {
				t.Fatal("no caught-up rollup table before the drop")
			}
			if err := wk.Fence("t#0", true); err != nil {
				t.Fatal(err)
			}

			if err := tc.drop(wk, cl); err != nil {
				t.Fatal(err)
			}
			if n := wk.Parts().Len(); n != 0 {
				t.Fatalf("%d set entries survive the drop", n)
			}
			if wk.Parts().RollupTable("t#0") != nil {
				t.Fatal("rollup table survives the drop")
			}
			if wk.IsFenced("t#0") {
				t.Fatal("fence survives the drop")
			}
			resp := postPartial(t, srv.URL, "t#0", count, nil)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("/partial on the dropped partition: status %d, want 404", resp.StatusCode)
			}

			load(3) // ds 0..2, app 0: one brick
			if fresh := wk.Parts().RollupTable("t#0"); fresh == old || fresh.Stats().FoldedRows != 3 {
				t.Fatalf("re-created partition inherited the rollup table: %+v", fresh.Stats())
			}
			res, err = (&Coordinator{}).Query(ctx, targets, count)
			if err != nil || res.Rows[0][0] != 3 {
				t.Fatalf("after drop and re-create: %v, %+v", err, res)
			}
			res, err = (&Coordinator{}).Query(ctx, targets, &engine.Query{
				Aggregates: []engine.Aggregate{{Func: engine.Count}}, Filter: map[string][2]uint32{"ds": {1, 1}}})
			if err != nil || res.Rows[0][0] != 1 || res.BricksVisited != 1 {
				t.Fatalf("raw scan after drop and re-create: %v, %+v", err, res)
			}
		})
	}
}

// BenchmarkServePartialSmall is the fixed cost of one /partial call: one
// tiny partition (256 bricks, a row each), a unique query every time so no
// cache can answer, the handler driven in-process with no socket. This is
// the "≈0.7 ms of worker CPU per call whatever it scans" line of the
// benchmark's layer budget (ROADMAP aim 1c); run with -benchmem.
func BenchmarkServePartialSmall(b *testing.B) {
	wk := NewWorker(partition.Config{FoldScans: true, BrickCacheBytes: 32 << 20})
	schema := brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "ds", Max: 128, Buckets: 16},
			{Name: "region", Max: 16, Buckets: 4},
			{Name: "app", Max: 1024, Buckets: 4},
			{Name: "kind", Max: 64, Buckets: 1},
		},
		Metrics: []brick.Metric{{Name: "value"}},
	}
	if err := wk.AddPartition("wide#0", schema); err != nil {
		b.Fatal(err)
	}
	st, _ := wk.Store("wide#0")
	for ds := uint32(0); ds < 128; ds += 8 {
		for region := uint32(0); region < 16; region += 4 {
			for app := uint32(0); app < 1024; app += 256 {
				if err := st.Insert([]uint32{ds, region, app, ds % 64}, []float64{1}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	h := wk.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// An app range nobody asked for before: a new fold key, so the
		// brick cache can neither hit nor (second touch) fill.
		body := fmt.Sprintf(`{"partition":"wide#0","query":{"Aggregates":[{"Func":0,"Metric":"value"}],"GroupBy":["app","kind"],"Filter":{"app":[%d,%d]}}}`,
			i%500, 500+i%524)
		req := httptest.NewRequest(http.MethodPost, "/partial", bytes.NewReader([]byte(body)))
		req.Header.Set("Accept-Encoding", "gzip")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}
