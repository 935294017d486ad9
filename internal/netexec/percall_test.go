package netexec

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cubrick/internal/brick"
	"cubrick/internal/engine"
	"cubrick/internal/metrics"
	"cubrick/internal/partition"
)

// TestFanoutReusesConnections drives 50 fan-out-16 queries, two at a time,
// at two workers holding eight partitions each — one call per host per
// query, so two in flight per host — and counts dials with
// http.Server.ConnState. The pool must keep every connection the first
// queries opened: once warm, a query dials nothing.
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
// queried leaves nothing on the worker once dropped, by POST /droppart or
// Worker.RemovePartition alike — no set entry, no store, no fence — and a
// partition re-created under the same name plans from its own bricks only,
// over a fresh store.
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
			wk := NewWorker(partition.Config{Metrics: metrics.NewRegistry()})
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
				t.Fatalf("count: %v, %+v", err, res)
			}
			res, err = (&Coordinator{}).Query(ctx, targets, ragged)
			if err != nil || res.Rows[0][0] != 20 || res.BricksVisited != 4 {
				t.Fatalf("raw count: %v, %+v", err, res)
			}
			old, ok := wk.Parts().Store("t#0")
			if !ok || old.Rows() != 600 {
				t.Fatal("no loaded store before the drop")
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
			if _, ok := wk.Parts().Store("t#0"); ok {
				t.Fatal("store survives the drop")
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
			if fresh, _ := wk.Parts().Store("t#0"); fresh == old || fresh.Rows() != 3 {
				t.Fatal("re-created partition inherited the dropped store")
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
	wk := NewWorker(partition.Config{})
	if err := wk.AddPartition("wide#0", wideSchema()); err != nil {
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
		// An app range nobody asked for before: a new fold key every call.
		body := fmt.Sprintf(`{"partitions":["wide#0"],"query":{"Aggregates":[{"Func":0,"Metric":"value"}],"GroupBy":["app","kind"],"Filter":{"app":[%d,%d]}}}`,
			i%500, 500+i%524)
		req := httptest.NewRequest(http.MethodPost, "/partial", bytes.NewReader([]byte(body)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// wideSchema is the benchmark's wide table: ds, region, app, kind.
func wideSchema() brick.Schema {
	return brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "ds", Max: 128, Buckets: 16},
			{Name: "region", Max: 16, Buckets: 4},
			{Name: "app", Max: 1024, Buckets: 4},
			{Name: "kind", Max: 64, Buckets: 1},
		},
		Metrics: []brick.Metric{{Name: "value"}},
	}
}

// hostWorker is a worker serving with cfg and holding parts partitions of
// the wide table, each loaded with the rows row(p, r) draws for r in
// [0, rows).
func hostWorker(tb testing.TB, cfg partition.Config, parts, rows int, row func(p, r int) []uint32) (*Worker, []string) {
	tb.Helper()
	wk := NewWorker(cfg)
	names := make([]string, parts)
	for p := range names {
		names[p] = fmt.Sprintf("wide#%d", p)
		if err := wk.AddPartition(names[p], wideSchema()); err != nil {
			tb.Fatal(err)
		}
		st, _ := wk.Store(names[p])
		dims, mets := make([][]uint32, rows), make([][]float64, rows)
		for r := range dims {
			dims[r], mets[r] = row(p, r), []float64{float64(r%97) / 7}
		}
		if err := st.InsertBatchRows(dims, mets); err != nil {
			tb.Fatal(err)
		}
	}
	return wk, names
}

// discardWriter is a ResponseWriter that drops the body, so measuring a
// call's allocations does not count a recorder's copy of the reply.
type discardWriter struct {
	h    http.Header
	code int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }

// BenchmarkServePartialHost is one host's share of a wide_fanout query: a
// /partial call naming eight wide-table partitions of 4 000 rows each,
// GROUP BY app, kind over a unique app range every iteration, so each
// partition answers thousands of groups and no cache can help. The handler
// is driven in-process with no socket; run with -benchmem.
func BenchmarkServePartialHost(b *testing.B) {
	rnd := rand.New(rand.NewSource(8))
	h, names := hostWorker(b, partition.Config{}, 8, 4000, func(int, int) []uint32 {
		return []uint32{uint32(rnd.Intn(120)), uint32(rnd.Intn(16)), uint32(rnd.Intn(1024)), uint32(rnd.Intn(64))}
	})
	list, err := json.Marshal(names)
	if err != nil {
		b.Fatal(err)
	}
	handler := h.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := i % 900
		body := fmt.Sprintf(`{"partitions":%s,"query":{"Aggregates":[{"Func":0,"Metric":"value"},{"Func":1}],"GroupBy":["app","kind"],"Filter":{"app":[%d,%d],"ds":[10,40]}}}`,
			list, lo, lo+48+i%96)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/partial", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkServePartialHostServed is BenchmarkServePartialHost in the state
// a long-running worker serves from: every brick evicted to the SSD tier
// and a 32 MiB decoded-column cache warmed by 2 000 calls, so each visited
// brick is a decoded-cache hit and a call costs its hit path and the pass
// around it, not decoding. The sub-benchmarks differ only in the ds range,
// which visits about three times as many bricks in the wide one; hits/op
// counts them. Its allocs/op must not grow with them. Run with -benchmem.
func BenchmarkServePartialHostServed(b *testing.B) {
	reg := metrics.NewRegistry()
	rnd := rand.New(rand.NewSource(8))
	wk, names := hostWorker(b, partition.Config{DecodedCacheBytes: 32 << 20, Metrics: reg}, 8, 4000, func(int, int) []uint32 {
		return []uint32{uint32(rnd.Intn(120)), uint32(rnd.Intn(16)), uint32(rnd.Intn(1024)), uint32(rnd.Intn(64))}
	})
	cold := brick.CompactionConfig{EncodeBelow: math.Inf(1), EvictBelow: math.Inf(1)}
	for _, name := range names {
		st, _ := wk.Store(name)
		for st.EvictedBrickCount() < st.BrickCount() {
			if _, err := st.CompactOnce(cold); err != nil {
				b.Fatal(err)
			}
		}
	}
	list, err := json.Marshal(names)
	if err != nil {
		b.Fatal(err)
	}
	handler := wk.Handler()
	for _, ds := range [][2]int{{10, 40}, {0, 119}} {
		call := func(i int) {
			lo := i % 900
			body := fmt.Sprintf(`{"partitions":%s,"query":{"Aggregates":[{"Func":0,"Metric":"value"},{"Func":1}],"GroupBy":["app","kind"],"Filter":{"app":[%d,%d],"ds":[%d,%d]}}}`,
				list, lo, lo+48+i%96, ds[0], ds[1])
			w := &discardWriter{h: http.Header{}}
			handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/partial", strings.NewReader(body)))
			if w.code != 0 && w.code != http.StatusOK {
				b.Fatalf("status %d", w.code)
			}
		}
		b.Run(fmt.Sprintf("ds=%d-%d", ds[0], ds[1]), func(b *testing.B) {
			for i := 0; i < 2000; i++ {
				call(i)
			}
			hits, misses := reg.Counter("cache.decoded.hit"), reg.Counter("cache.decoded.miss")
			h0, m0 := hits.Value(), misses.Value()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				call(i)
			}
			b.StopTimer()
			b.ReportMetric(float64(hits.Value()-h0)/float64(b.N), "hits/op")
			b.ReportMetric(float64(misses.Value()-m0)/float64(b.N), "misses/op")
		})
	}
}

// TestServePartialBytesFlat is the allocation ceiling check.sh enforces on
// a host answer: with the pools warm, a /partial call folds its partitions
// into a reused combiner and encodes into a reused buffer, so the bytes it
// allocates do not depend on how many groups it answers. Eight partitions
// each hold all 2 000 (app, kind) pairs of app < 250, kind < 8; the same
// call answering 2 000 groups may allocate at most bytesTolerance more
// than it does answering 10.
func TestServePartialBytesFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random, so allocations are not meaningful under -race")
	}
	const bytesTolerance = 1.25
	wk, names := hostWorker(t, partition.Config{}, 8, 2000, func(p, r int) []uint32 {
		return []uint32{uint32(r*7+p) % 120, uint32(r % 16), uint32(r % 250), uint32(r/250) % 8}
	})
	list, err := json.Marshal(names)
	if err != nil {
		t.Fatal(err)
	}
	h := wk.Handler()
	call := func(app, kind int) func() {
		body := []byte(fmt.Sprintf(`{"partitions":%s,"query":{"Aggregates":[{"Func":0,"Metric":"value"},{"Func":1}],"GroupBy":["app","kind"],"Filter":{"app":[0,%d],"kind":[0,%d]}}}`,
			list, app-1, kind-1))
		return func() {
			w := &discardWriter{h: http.Header{}}
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/partial", bytes.NewReader(body)))
			if w.code != 0 && w.code != http.StatusOK {
				t.Fatalf("status %d", w.code)
			}
		}
	}
	perCall := func(f func()) float64 {
		for i := 0; i < 20; i++ { // warm the pools
			f()
		}
		const n = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	few, many := perCall(call(5, 2)), perCall(call(250, 8))
	t.Logf("bytes allocated per call: %.0f answering 10 groups, %.0f answering 2000", few, many)
	if many > few*bytesTolerance {
		t.Fatalf("a call answering 2000 groups allocates %.0f bytes, %.2fx the %.0f of one answering 10; ceiling %.2fx",
			many, many/few, few, bytesTolerance)
	}
}
