package netexec

// Distributed data-plane benchmarks: coordinator-side merge (old barrier
// algorithm vs streaming zero-copy MergeWire), bulk ingest (JSON per-row
// vs binary columnar batch), and end-to-end scatter-gather fan-out over
// httptest workers. scripts/bench.sh runs these and records the results
// in BENCH_netexec.json so the repo's perf trajectory is tracked.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"cubrick/internal/brick"
	"cubrick/internal/engine"
	"cubrick/internal/metrics"
	"cubrick/internal/partition"
	"cubrick/internal/randutil"
	"cubrick/internal/trace"
)

func benchSchema() brick.Schema {
	return brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "ds", Max: 256, Buckets: 8},
			{Name: "app", Max: 64, Buckets: 4},
		},
		Metrics: []brick.Metric{{Name: "value"}},
	}
}

func benchQuery() *engine.Query {
	return &engine.Query{
		Aggregates: []engine.Aggregate{
			{Func: engine.Sum, Metric: "value"},
			{Func: engine.Avg, Metric: "value"},
		},
		GroupBy: []string{"ds", "app"},
	}
}

// benchRows builds one worker's row-major data, seeded per worker so
// group keys overlap heavily across workers (the coordinator's merge is
// dominated by repeated-group folding, as in real scatter-gather).
func benchRows(worker, rows int) (dims [][]uint32, mets [][]float64) {
	rnd := randutil.New(int64(worker) + 1)
	dims = make([][]uint32, rows)
	mets = make([][]float64, rows)
	for i := 0; i < rows; i++ {
		dims[i] = []uint32{uint32(rnd.Intn(256)), uint32(rnd.Intn(64))}
		mets[i] = []float64{float64(rnd.Intn(1 << 16))}
	}
	return dims, mets
}

// benchBlobs marshals nWorkers wire partials for the query, each from its
// own partition's data — the coordinator-side merge workload with the
// network removed.
func benchBlobs(b *testing.B, nWorkers, rowsPerWorker int, q *engine.Query) [][]byte {
	b.Helper()
	blobs := make([][]byte, nWorkers)
	for w := 0; w < nWorkers; w++ {
		st, err := brick.NewStore(benchSchema())
		if err != nil {
			b.Fatal(err)
		}
		dims, mets := benchRows(w, rowsPerWorker)
		if err := st.InsertBatchRows(dims, mets); err != nil {
			b.Fatal(err)
		}
		p, err := engine.Execute(st, q)
		if err != nil {
			b.Fatal(err)
		}
		if blobs[w], err = p.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
	return blobs
}

// benchMergeBarrier is the pre-streaming coordinator algorithm: decode
// every blob into an intermediate Partial, then merge serially.
func benchMergeBarrier(b *testing.B, nWorkers int) {
	q := benchQuery()
	blobs := benchBlobs(b, nWorkers, 4096, q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged := engine.NewPartial(q)
		for _, blob := range blobs {
			p, err := engine.UnmarshalPartial(q, blob)
			if err != nil {
				b.Fatal(err)
			}
			if err := merged.Merge(p); err != nil {
				b.Fatal(err)
			}
		}
		if merged.Groups() == 0 {
			b.Fatal("empty merge")
		}
	}
}

// benchMergeStream is the streaming zero-copy path: every blob folds
// straight into the accumulator via MergeWire.
func benchMergeStream(b *testing.B, nWorkers int) {
	q := benchQuery()
	blobs := benchBlobs(b, nWorkers, 4096, q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged := engine.NewPartial(q)
		for _, blob := range blobs {
			if err := engine.MergeWire(merged, blob); err != nil {
				b.Fatal(err)
			}
		}
		if merged.Groups() == 0 {
			b.Fatal("empty merge")
		}
	}
}

func BenchmarkMergeBarrier16(b *testing.B) { benchMergeBarrier(b, 16) }
func BenchmarkMergeStream16(b *testing.B)  { benchMergeStream(b, 16) }
func BenchmarkMergeBarrier64(b *testing.B) { benchMergeBarrier(b, 64) }
func BenchmarkMergeStream64(b *testing.B)  { benchMergeStream(b, 64) }

// BenchmarkIngestBinary ships the same 8192-row batch to an httptest
// worker over the binary columnar endpoint.
func BenchmarkIngestBinary(b *testing.B) {
	w := NewWorker(partition.Config{})
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	cl := &Client{BaseURL: srv.URL}
	dims, mets := benchRows(0, 8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		part := fmt.Sprintf("p%d", i)
		if err := cl.CreatePartition(context.Background(), part, benchSchema()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := cl.Load(context.Background(), part, dims, mets); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(8192, "rows_per_op")
}

// benchFanout measures the full scatter-gather: n httptest workers, one
// partition each, streamed merge on the coordinator. With observed set,
// the whole observability plane is live — tracer and histogram registry on
// the coordinator and every worker, a root span per query, trace headers
// on the wire — so Observed-vs-plain is the tracing+metrics overhead the
// PR budgets at <=3%.
func benchFanout(b *testing.B, nWorkers int, observed bool) {
	var targets []Target
	var servers []*httptest.Server
	for i := 0; i < nWorkers; i++ {
		var cfg partition.Config
		if observed {
			cfg.Metrics = metrics.NewRegistry()
		}
		w := NewWorker(cfg)
		if observed {
			w.Tracer = trace.New(trace.Config{})
		}
		srv := httptest.NewServer(w.Handler())
		servers = append(servers, srv)
		part := fmt.Sprintf("t#%d", i)
		cl := &Client{BaseURL: srv.URL}
		if err := cl.CreatePartition(context.Background(), part, benchSchema()); err != nil {
			b.Fatal(err)
		}
		dims, mets := benchRows(i, 2048)
		if _, err := cl.Load(context.Background(), part, dims, mets); err != nil {
			b.Fatal(err)
		}
		targets = append(targets, Target{URL: srv.URL, Partition: part})
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	coord := NewCoordinator()
	var tracer *trace.Tracer
	if observed {
		tracer = trace.New(trace.Config{})
		coord.Tracer = tracer
		coord.Metrics = metrics.NewRegistry()
	}
	q := benchQuery()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qctx, root := ctx, (*trace.Span)(nil)
		if observed {
			qctx, root = tracer.StartSpan(ctx, "coordinator.query")
		}
		res, err := coord.Query(qctx, targets, q)
		root.EndErr(err)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkQueryFanout4(b *testing.B)          { benchFanout(b, 4, false) }
func BenchmarkQueryFanout16(b *testing.B)         { benchFanout(b, 16, false) }
func BenchmarkQueryFanout64(b *testing.B)         { benchFanout(b, 64, false) }
func BenchmarkQueryFanout64Observed(b *testing.B) { benchFanout(b, 64, true) }
