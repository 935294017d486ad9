package netexec

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"cubrick/internal/brick"
	"cubrick/internal/engine"
	"cubrick/internal/partition"
	"cubrick/internal/randutil"
)

// TestFailFastCancelsPeers pins the satellite fix: a failed worker must
// fail the query immediately and cancel the in-flight peers instead of
// waiting for the whole fan-out to drain.
func TestFailFastCancelsPeers(t *testing.T) {
	var stalledCanceled atomic.Bool
	entered := make(chan struct{})
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server's background read can observe the
		// client disconnect and cancel the request context.
		io.Copy(io.Discard, r.Body)
		close(entered)
		select {
		case <-r.Context().Done():
			stalledCanceled.Store(true)
		case <-time.After(30 * time.Second):
		}
	}))
	defer stalled.Close()
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Fail only once the peer request is in flight: a failure that wins
		// the race against the peer's dial cancels a request the stalled
		// server never saw, and there is nothing left to observe.
		<-entered
		http.Error(w, "disk on fire", http.StatusInternalServerError)
	}))
	defer failing.Close()

	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	targets := []Target{
		{URL: stalled.URL, Partition: "p0"},
		{URL: failing.URL, Partition: "p1"},
	}
	start := time.Now()
	_, err := (&Coordinator{}).Query(context.Background(), targets, q)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrWorkerFailed) {
		t.Fatalf("query = %v, want ErrWorkerFailed", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("failure took %v: coordinator waited for the stalled peer", elapsed)
	}
	// The stalled request's context must be canceled shortly after Query
	// returns (Query's deferred cancel aborts the in-flight fetch).
	deadline := time.Now().Add(3 * time.Second)
	for !stalledCanceled.Load() {
		if time.Now().After(deadline) {
			t.Fatal("stalled peer request was never canceled")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLoadBinEqualsLocalInsert: rows shipped through /loadbin — the
// worker's only ingest endpoint; Client.Load is the same path — answer
// exactly like the same rows inserted into a local store.
func TestLoadBinEqualsLocalInsert(t *testing.T) {
	w := NewWorker(partition.Config{})
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	cl := &Client{BaseURL: srv.URL}
	if err := cl.CreatePartition(context.Background(), "bin", testSchema()); err != nil {
		t.Fatal(err)
	}
	const rows = 777
	dims := make([][]uint32, rows)
	mets := make([][]float64, rows)
	for i := 0; i < rows; i++ {
		dims[i] = []uint32{uint32(i) % 30, uint32(i*3) % 20}
		mets[i] = []float64{float64(i) / 2}
	}
	local, _ := brick.NewStore(testSchema())
	if err := local.InsertBatchRows(dims, mets); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Load(context.Background(), "bin", dims[:400], mets[:400]); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Load(context.Background(), "bin", dims[400:], mets[400:]); err != nil {
		t.Fatal(err)
	}
	q := &engine.Query{
		Aggregates: []engine.Aggregate{
			{Func: engine.Sum, Metric: "value"},
			{Func: engine.Count},
			{Func: engine.Min, Metric: "value"},
			{Func: engine.Max, Metric: "value"},
		},
		GroupBy: []string{"app"},
	}
	ap, err := engine.Execute(local, q)
	if err != nil {
		t.Fatal(err)
	}
	a := ap.Finalize()
	b, err := (&Coordinator{}).Query(context.Background(), []Target{{URL: srv.URL, Partition: "bin"}}, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != len(b.Rows) || a.RowsScanned != b.RowsScanned {
		t.Fatalf("shape differs: %d/%d rows, %d/%d scanned", len(a.Rows), len(b.Rows), a.RowsScanned, b.RowsScanned)
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				t.Fatalf("row %d col %d: %v vs %v", i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
}

func TestLoadBinErrors(t *testing.T) {
	w := NewWorker(partition.Config{})
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	cl := &Client{BaseURL: srv.URL}
	if err := cl.CreatePartition(context.Background(), "p", testSchema()); err != nil {
		t.Fatal(err)
	}
	// Unknown partition.
	if _, err := cl.Load(context.Background(), "ghost", [][]uint32{{1, 1}}, [][]float64{{1}}); !errors.Is(err, ErrWorkerFailed) {
		t.Fatalf("load into missing partition = %v", err)
	}
	// Corrupt blob straight at the endpoint.
	resp, err := http.Post(srv.URL+"/loadbin", "application/octet-stream", bytes.NewReader([]byte("not a batch")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt blob status = %d", resp.StatusCode)
	}
	// Out-of-domain row: the whole batch must be rejected atomically.
	_, err = cl.Load(context.Background(), "p", [][]uint32{{1, 1}, {999, 1}}, [][]float64{{1}, {2}})
	if !errors.Is(err, ErrWorkerFailed) {
		t.Fatalf("out-of-domain batch = %v", err)
	}
	st, err := w.Store("p")
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows() != 0 {
		t.Fatalf("rejected batch left %d rows behind", st.Rows())
	}
	// Ragged input is rejected client-side before any bytes move.
	if _, err := cl.Load(context.Background(), "p", [][]uint32{{1, 1}, {2}}, [][]float64{{1}, {2}}); err == nil {
		t.Fatal("ragged batch accepted")
	}
}

func TestBatchWireRoundTrip(t *testing.T) {
	dims := [][]uint32{{1, 2}, {3, 4}, {5, 6}}
	mets := [][]float64{{1.5}, {-2.25}, {0}}
	blob, err := EncodeBatch("t#0", dims, mets)
	if err != nil {
		t.Fatal(err)
	}
	part, dimCols, metricCols, rows, err := DecodeBatch(blob)
	if err != nil {
		t.Fatal(err)
	}
	if part != "t#0" || rows != 3 || len(dimCols) != 2 || len(metricCols) != 1 {
		t.Fatalf("decode = %q, %d rows, %d/%d cols", part, rows, len(dimCols), len(metricCols))
	}
	for r := 0; r < rows; r++ {
		for d := range dimCols {
			if dimCols[d][r] != dims[r][d] {
				t.Fatalf("dim[%d][%d] = %d, want %d", d, r, dimCols[d][r], dims[r][d])
			}
		}
		if metricCols[0][r] != mets[r][0] {
			t.Fatalf("metric[%d] = %v, want %v", r, metricCols[0][r], mets[r][0])
		}
	}
	// Empty batch round trip.
	blob, err = EncodeBatch("empty", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, rows, err = DecodeBatch(blob); err != nil || rows != 0 {
		t.Fatalf("empty batch decode = %d rows, %v", rows, err)
	}
	// Truncation and forged headers must be rejected.
	full, _ := EncodeBatch("t", dims, mets)
	for cut := 0; cut < len(full); cut++ {
		if _, _, _, _, err := DecodeBatch(full[:cut]); err == nil {
			t.Fatalf("truncated batch at %d accepted", cut)
		}
	}
	if _, _, _, _, err := DecodeBatch(append(full, 0x00)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestPartialGzipAndContentLength covers two satellites: /partial sets
// Content-Length, and large blobs gzip when the client accepts it.
func TestPartialGzipAndContentLength(t *testing.T) {
	w := NewWorker(partition.Config{})
	w.GzipMinBytes = 64 // force compression of modest partials
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	cl := &Client{BaseURL: srv.URL}
	if err := cl.CreatePartition(context.Background(), "p", testSchema()); err != nil {
		t.Fatal(err)
	}
	var dims [][]uint32
	var mets [][]float64
	for i := 0; i < 600; i++ {
		dims = append(dims, []uint32{uint32(i) % 30, uint32(i) % 20})
		mets = append(mets, []float64{float64(i)})
	}
	if _, err := cl.Load(context.Background(), "p", dims, mets); err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"partition":"p","query":{"Aggregates":[{"Func":0,"Metric":"value"}],"GroupBy":["ds","app"]}}`)

	do := func(acceptEncoding string) *http.Response {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/partial", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept-Encoding", acceptEncoding)
		resp, err := http.DefaultTransport.RoundTrip(req) // no transparent gzip
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Identity: raw blob with exact Content-Length.
	resp := do("identity")
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("Content-Encoding") != "" {
		t.Fatalf("identity request got Content-Encoding %q", resp.Header.Get("Content-Encoding"))
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(raw)) {
		t.Fatalf("Content-Length %q, body %d bytes", cl, len(raw))
	}

	// Gzip: compressed on the wire, identical blob after decompression.
	resp = do("gzip")
	zbody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("Content-Encoding") != "gzip" {
		t.Fatal("large partial not gzipped for a gzip-accepting client")
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(zbody)) {
		t.Fatalf("gzip Content-Length %q, body %d bytes", cl, len(zbody))
	}
	zr, err := gzip.NewReader(bytes.NewReader(zbody))
	if err != nil {
		t.Fatal(err)
	}
	unzipped, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	// Wire partials are not byte-canonical (groups serialize in map
	// order), so compare the decoded, finalized results instead of bytes.
	q := &engine.Query{
		Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value"}},
		GroupBy:    []string{"ds", "app"},
	}
	pRaw, err := engine.UnmarshalPartial(q, raw)
	if err != nil {
		t.Fatal(err)
	}
	pZip, err := engine.UnmarshalPartial(q, unzipped)
	if err != nil {
		t.Fatal(err)
	}
	if err := resultsEqual(pRaw.Finalize(), pZip.Finalize()); err != nil {
		t.Fatalf("gzip round trip changed the partial: %v", err)
	}

	// And the full coordinator path works against a gzipping worker.
	if _, err := (&Coordinator{}).Query(context.Background(), []Target{{URL: srv.URL, Partition: "p"}}, q); err != nil {
		t.Fatal(err)
	}
}

// TestStreamingMergeEqualsBarrier is the acceptance property test: over
// random schemas, data distributions and queries, the streaming
// MergeWire-based coordinator must produce exactly the Result the old
// barrier path (fetch all, UnmarshalPartial each, Merge serially,
// Finalize) produces — including CountDistinct rows backed by HLL
// sketches, which must merge register-identically in any arrival order.
func TestStreamingMergeEqualsBarrier(t *testing.T) {
	rnd := randutil.New(20260805)
	aggFuncs := []engine.AggFunc{engine.Sum, engine.Count, engine.Min, engine.Max, engine.Avg, engine.CountDistinct}
	for trial := 0; trial < 20; trial++ {
		nDims := 1 + rnd.Intn(3)
		schema := brick.Schema{}
		for d := 0; d < nDims; d++ {
			max := uint32(2 + rnd.Intn(30))
			schema.Dimensions = append(schema.Dimensions, brick.Dimension{
				Name: fmt.Sprintf("d%d", d), Max: max, Buckets: uint32(1 + rnd.Intn(int(max))),
			})
		}
		nMetrics := rnd.Intn(3)
		for m := 0; m < nMetrics; m++ {
			schema.Metrics = append(schema.Metrics, brick.Metric{Name: fmt.Sprintf("m%d", m)})
		}

		nWorkers := 2 + rnd.Intn(5)
		var targets []Target
		var servers []*httptest.Server
		var locals []*brick.Store
		for i := 0; i < nWorkers; i++ {
			w := NewWorker(partition.Config{})
			w.GzipMinBytes = 128 // exercise compressed partials too
			srv := httptest.NewServer(w.Handler())
			servers = append(servers, srv)
			part := fmt.Sprintf("t#%d", i)
			if err := (&Client{BaseURL: srv.URL}).CreatePartition(context.Background(), part, schema); err != nil {
				t.Fatal(err)
			}
			targets = append(targets, Target{URL: srv.URL, Partition: part})
			local, err := brick.NewStore(schema)
			if err != nil {
				t.Fatal(err)
			}
			locals = append(locals, local)
		}
		rows := rnd.Intn(800)
		perWorkerDims := make([][][]uint32, nWorkers)
		perWorkerMets := make([][][]float64, nWorkers)
		for r := 0; r < rows; r++ {
			dims := make([]uint32, nDims)
			for d := range dims {
				dims[d] = uint32(rnd.Intn(int(schema.Dimensions[d].Max)))
			}
			mets := make([]float64, nMetrics)
			for m := range mets {
				mets[m] = float64(rnd.Intn(1<<16)) / 4 // dyadic: exact sums
			}
			wi := r % nWorkers
			perWorkerDims[wi] = append(perWorkerDims[wi], dims)
			perWorkerMets[wi] = append(perWorkerMets[wi], mets)
		}
		for i := 0; i < nWorkers; i++ {
			if _, err := (&Client{BaseURL: servers[i].URL}).Load(context.Background(), targets[i].Partition, perWorkerDims[i], perWorkerMets[i]); err != nil {
				t.Fatal(err)
			}
			if err := locals[i].InsertBatchRows(perWorkerDims[i], perWorkerMets[i]); err != nil {
				t.Fatal(err)
			}
		}

		q := &engine.Query{}
		nAggs := 1 + rnd.Intn(3)
		for a := 0; a < nAggs; a++ {
			f := aggFuncs[rnd.Intn(len(aggFuncs))]
			if nMetrics == 0 && f != engine.Count && f != engine.CountDistinct {
				f = engine.CountDistinct
			}
			agg := engine.Aggregate{Func: f, Alias: fmt.Sprintf("a%d", a)}
			switch f {
			case engine.Count:
			case engine.CountDistinct:
				agg.Metric = schema.Dimensions[rnd.Intn(nDims)].Name
			default:
				agg.Metric = schema.Metrics[rnd.Intn(nMetrics)].Name
			}
			q.Aggregates = append(q.Aggregates, agg)
		}
		for _, d := range rnd.Perm(nDims)[:rnd.Intn(nDims+1)] {
			q.GroupBy = append(q.GroupBy, schema.Dimensions[d].Name)
		}
		if rnd.Bernoulli(0.5) {
			d := schema.Dimensions[rnd.Intn(nDims)]
			lo := uint32(rnd.Intn(int(d.Max)))
			hi := lo + uint32(rnd.Intn(int(d.Max-lo)))
			q.Filter = map[string][2]uint32{d.Name: {lo, hi}}
		}

		// Barrier reference: execute each partition locally, round-trip
		// every partial through the wire format, merge serially in partition
		// order — the exact pre-streaming coordinator algorithm.
		barrier := engine.NewPartial(q)
		for i := 0; i < nWorkers; i++ {
			p, err := engine.Execute(locals[i], q)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := p.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			rp, err := engine.UnmarshalPartial(q, blob)
			if err != nil {
				t.Fatal(err)
			}
			if err := barrier.Merge(rp); err != nil {
				t.Fatal(err)
			}
		}
		want := barrier.Finalize()

		got, err := (&Coordinator{}).Query(context.Background(), targets, q)
		if err != nil {
			t.Fatal(err)
		}
		if err := resultsEqual(want, got); err != nil {
			t.Fatalf("trial %d (%d workers, %d rows, groupby %v, filter %v): %v",
				trial, nWorkers, rows, q.GroupBy, q.Filter, err)
		}
		for _, s := range servers {
			s.Close()
		}
	}
}

// resultsEqual is exact equality over finalized results, including the
// scan counters — CountDistinct values come from merged HLL sketches, so
// equality here means the sketches merged bit-identically.
func resultsEqual(a, b *engine.Result) error {
	if len(a.Columns) != len(b.Columns) {
		return fmt.Errorf("columns %v vs %v", a.Columns, b.Columns)
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			return fmt.Errorf("column %d: %q vs %q", i, a.Columns[i], b.Columns[i])
		}
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("row counts %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				return fmt.Errorf("row %d col %d: %v vs %v", i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
	if a.RowsScanned != b.RowsScanned || a.BricksVisited != b.BricksVisited ||
		a.BricksPruned != b.BricksPruned || a.Decompressions != b.Decompressions {
		return fmt.Errorf("counters (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			a.RowsScanned, a.BricksVisited, a.BricksPruned, a.Decompressions,
			b.RowsScanned, b.BricksVisited, b.BricksPruned, b.Decompressions)
	}
	return nil
}
