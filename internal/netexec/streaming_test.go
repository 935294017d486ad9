package netexec

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cubrick/internal/brick"
	"cubrick/internal/engine"
	"cubrick/internal/oracle"
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

// insertRows inserts a row-major batch (dims[r][d], mets[r][m]) through
// InsertBatch, transposing it into the store's columns first.
func insertRows(s *brick.Store, dims [][]uint32, mets [][]float64) error {
	dimCols := make([][]uint32, len(s.Schema().Dimensions))
	for d := range dimCols {
		dimCols[d] = make([]uint32, len(dims))
		for r := range dims {
			dimCols[d][r] = dims[r][d]
		}
	}
	metCols := make([][]float64, len(s.Schema().Metrics))
	for m := range metCols {
		metCols[m] = make([]float64, len(mets))
		for r := range mets {
			metCols[m][r] = mets[r][m]
		}
	}
	return s.InsertBatch(dimCols, metCols)
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
	if err := insertRows(local, dims, mets); err != nil {
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
	got, err := (&Coordinator{}).Query(context.Background(), []Target{{URL: srv.URL, Partition: "bin"}}, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.Equal(reference(t, q, local), got); err != nil {
		t.Fatal(err)
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

// TestPartialRawReplyAndContentLength: /partial sets Content-Length and
// sends the blob raw, even to a client that advertises gzip — compressing
// pays only on links far slower than a datacenter's — and the coordinator
// path reads it back.
func TestPartialRawReplyAndContentLength(t *testing.T) {
	w := NewWorker(partition.Config{})
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
	body := []byte(`{"partitions":["p"],"query":{"Aggregates":[{"Func":0,"Metric":"value"}],"GroupBy":["ds","app"]}}`)
	q := &engine.Query{
		Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value"}},
		GroupBy:    []string{"ds", "app"},
	}

	var blobs [][]byte
	for _, acceptEncoding := range []string{"identity", "gzip"} {
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
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ce := resp.Header.Get("Content-Encoding"); ce != "" {
			t.Fatalf("Accept-Encoding %s got Content-Encoding %q", acceptEncoding, ce)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(raw)) {
			t.Fatalf("Content-Length %q, body %d bytes", cl, len(raw))
		}
		if _, err := engine.UnmarshalPartial(q, raw); err != nil {
			t.Fatalf("Accept-Encoding %s: %v", acceptEncoding, err)
		}
		blobs = append(blobs, raw)
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatal("a gzip-accepting client got other bytes than an identity one")
	}

	if _, err := (&Coordinator{}).Query(context.Background(), []Target{{URL: srv.URL, Partition: "p"}}, q); err != nil {
		t.Fatal(err)
	}
}

// TestPartialRejectsDuplicatePartition: a /partial body naming one
// partition twice is refused with 400, not answered with that partition
// merged into itself (doubled sums and counts, epoch header "e,e").
func TestPartialRejectsDuplicatePartition(t *testing.T) {
	srv := httptest.NewServer(NewWorker(partition.Config{}).Handler())
	defer srv.Close()
	if err := (&Client{BaseURL: srv.URL}).CreatePartition(context.Background(), "p", testSchema()); err != nil {
		t.Fatal(err)
	}
	body := `{"partitions":["p","p"],"query":{"Aggregates":[{"Func":1}]}}`
	resp, err := http.Post(srv.URL+"/partial", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || resp.Header.Get(HeaderEpoch) != "" {
		t.Fatalf("duplicate partitions: status %d, epochs %q; want 400 and none", resp.StatusCode, resp.Header.Get(HeaderEpoch))
	}
}

// TestPartialRejectsMixedSchemas: a /partial body naming partitions of
// different schemas is refused with 400. The coordinator never sends one,
// but the endpoint takes outside input, and one combiner cannot hold both:
// its kernel addresses groups by their offset in the first partition's
// domain, so the second's groups would mis-key or index out of range.
func TestPartialRejectsMixedSchemas(t *testing.T) {
	wk := NewWorker(partition.Config{})
	narrow := testSchema()
	wide := testSchema()
	wide.Dimensions = slices.Clone(wide.Dimensions)
	wide.Dimensions[0].Max *= 64
	for name, schema := range map[string]brick.Schema{"narrow": narrow, "wide": wide} {
		if err := wk.AddPartition(name, schema); err != nil {
			t.Fatal(err)
		}
		st, _ := wk.Store(name)
		top := schema.Dimensions[0].Max - 1
		if err := st.Insert([]uint32{top, 1}, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	h := wk.Handler()
	for _, order := range []string{`"narrow","wide"`, `"wide","narrow"`} {
		body := `{"partitions":[` + order + `],"query":{"Aggregates":[{"Func":1}],"GroupBy":["ds"]}}`
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/partial", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest || rec.Header().Get(HeaderEpoch) != "" {
			t.Fatalf("partitions [%s]: status %d, epochs %q; want 400 and none", order, rec.Code, rec.Header().Get(HeaderEpoch))
		}
	}
}

// TestHostAnswerFoldsListOrder is the single-host wall on non-dyadic
// metrics: a worker serving three partitions of a table answers a /partial
// call naming them in a random order with one left fold over their bricks
// — partitions in list order, bricks in brick-id order within each — so
// the decoded, finalized answer equals oracle.Run over the stores in that
// order bit for bit, scan counters included, even though the sums round.
func TestHostAnswerFoldsListOrder(t *testing.T) {
	rnd := randutil.New(0x4057)
	for trial := 0; trial < 25; trial++ {
		store, q := oracle.NewTrial(t, rnd, false)
		wk := NewWorker(partition.Config{})
		names := []string{"t#0", "t#1", "t#2"}
		dims, mets := make([][][]uint32, len(names)), make([][][]float64, len(names))
		rows := 0
		if err := store.Scan(nil, func(d []uint32, m []float64) error {
			i := rows % len(names)
			dims[i] = append(dims[i], slices.Clone(d))
			mets[i] = append(mets[i], slices.Clone(m))
			rows++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, name := range names {
			if err := wk.AddPartition(name, store.Schema()); err != nil {
				t.Fatal(err)
			}
			st, _ := wk.Store(name)
			if err := insertRows(st, dims[i], mets[i]); err != nil {
				t.Fatal(err)
			}
			if rnd.Bernoulli(0.5) { // encoded bricks take the encoded kernels
				if _, _, err := st.EnsureBudget(0, 0.5); err != nil {
					t.Fatal(err)
				}
			}
		}
		rnd.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		stores := make([]*brick.Store, len(names))
		for i, name := range names {
			stores[i], _ = wk.Store(name)
		}
		body, err := json.Marshal(partialRequest{Partitions: names, Query: *q})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		wk.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/partial", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("trial %d: status %d: %s", trial, rec.Code, rec.Body.String())
		}
		p, err := engine.UnmarshalPartial(q, rec.Body.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.Equal(reference(t, q, stores...), p.Finalize()); err != nil {
			t.Fatalf("trial %d (partitions %v, %d rows, groupby %v, filter %v): %v",
				trial, names, rows, q.GroupBy, q.Filter, err)
		}
	}
}

// TestStreamingMergeEqualsBarrier is the acceptance property test: over
// generated schemas, data distributions and queries, the streaming
// MergeWire-based coordinator must produce exactly the Result the oracle
// computes over the partitions' stores, merged in partition order as the
// old barrier path did — scan counters and CountDistinct rows backed by
// HLL sketches included, which must merge register-identically in any
// arrival order. Metrics are dyadic: partials merge in arrival order.
func TestStreamingMergeEqualsBarrier(t *testing.T) {
	rnd := randutil.New(20260805)
	for trial := 0; trial < 20; trial++ {
		store, q := oracle.NewTrial(t, rnd, true)
		schema := store.Schema()
		nWorkers := 2 + rnd.Intn(5)
		var targets []Target
		var servers []*httptest.Server
		var locals []*brick.Store
		for i := 0; i < nWorkers; i++ {
			srv := httptest.NewServer(NewWorker(partition.Config{}).Handler())
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
		// The trial's rows, dealt round-robin over the partitions.
		perWorkerDims := make([][][]uint32, nWorkers)
		perWorkerMets := make([][][]float64, nWorkers)
		rows := 0
		if err := store.Scan(nil, func(dims []uint32, mets []float64) error {
			wi := rows % nWorkers
			perWorkerDims[wi] = append(perWorkerDims[wi], slices.Clone(dims))
			perWorkerMets[wi] = append(perWorkerMets[wi], slices.Clone(mets))
			rows++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nWorkers; i++ {
			if _, err := (&Client{BaseURL: servers[i].URL}).Load(context.Background(), targets[i].Partition, perWorkerDims[i], perWorkerMets[i]); err != nil {
				t.Fatal(err)
			}
			if err := insertRows(locals[i], perWorkerDims[i], perWorkerMets[i]); err != nil {
				t.Fatal(err)
			}
		}

		got, err := (&Coordinator{}).Query(context.Background(), targets, q)
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.Equal(reference(t, q, locals...), got); err != nil {
			t.Fatalf("trial %d (%d workers, %d rows, groupby %v, filter %v): %v",
				trial, nWorkers, rows, q.GroupBy, q.Filter, err)
		}
		for _, s := range servers {
			s.Close()
		}
	}
}

// TestMergeFailureLeavesNextQueryExact: a query whose merge fails on a
// corrupt blob — one trailing byte, so every group merges before the
// decoder rejects it — leaves nothing in the pooled accumulator the next
// query takes: each query after it answers exactly.
func TestMergeFailureLeavesNextQueryExact(t *testing.T) {
	var corrupt atomic.Bool
	var targets []Target
	var stores []*brick.Store
	for i := 0; i < 2; i++ {
		h := NewWorker(partition.Config{}).Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/partial" || !corrupt.Load() {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			for k, v := range rec.Header() {
				if k != "Content-Length" {
					w.Header()[k] = v
				}
			}
			w.WriteHeader(rec.Code)
			w.Write(append(rec.Body.Bytes(), 0))
		}))
		defer srv.Close()
		part := fmt.Sprintf("t#%d", i)
		cl := &Client{BaseURL: srv.URL}
		if err := cl.CreatePartition(context.Background(), part, testSchema()); err != nil {
			t.Fatal(err)
		}
		store, err := brick.NewStore(testSchema())
		if err != nil {
			t.Fatal(err)
		}
		var dims [][]uint32
		var mets [][]float64
		for r := 0; r < 600; r++ {
			dims = append(dims, []uint32{uint32(r*7+i) % 30, uint32(r*3+i) % 20})
			mets = append(mets, []float64{float64(r % 13)})
		}
		if _, err := cl.Load(context.Background(), part, dims, mets); err != nil {
			t.Fatal(err)
		}
		if err := insertRows(store, dims, mets); err != nil {
			t.Fatal(err)
		}
		targets, stores = append(targets, Target{URL: srv.URL, Partition: part}), append(stores, store)
	}
	q := &engine.Query{
		Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value"}, {Func: engine.Count}},
		GroupBy:    []string{"ds", "app"},
	}
	want := reference(t, q, stores...)
	coord := &Coordinator{}
	for round := 0; round < 4; round++ {
		corrupt.Store(true)
		if _, err := coord.Query(context.Background(), targets, q); err == nil {
			t.Fatalf("round %d: a query over corrupt blobs answered", round)
		}
		corrupt.Store(false)
		got, err := coord.Query(context.Background(), targets, q)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := oracle.Equal(want, got); err != nil {
			t.Fatalf("round %d: the query after a failed merge: %v", round, err)
		}
	}
}

// TestConcurrentQueriesReusePooledPartials: concurrent queries of
// different arities and aggregates through one coordinator take and
// release pooled accumulators at once (run with -race); every answer is
// exact.
func TestConcurrentQueriesReusePooledPartials(t *testing.T) {
	targets, whole, cleanup := startCluster(t, 3, 900)
	defer cleanup()
	queries := []*engine.Query{
		{Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value"}}},
		{Aggregates: []engine.Aggregate{{Func: engine.Count}, {Func: engine.CountDistinct, Metric: "ds"}}, GroupBy: []string{"app"}},
		{Aggregates: []engine.Aggregate{{Func: engine.Max, Metric: "value"}, {Func: engine.Avg, Metric: "value"}, {Func: engine.Count}},
			GroupBy: []string{"ds", "app"}},
		{Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value"}}, GroupBy: []string{"app", "ds"}, OrderBy: "sum(value)", Desc: true, Limit: 5},
	}
	// The whole table is one store, so only the answers compare, not the
	// brick counts.
	wants := make([]*engine.Result, len(queries))
	for i, q := range queries {
		wants[i] = reference(t, q, whole)
	}
	coord := &Coordinator{}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				qi := (g + i) % len(queries)
				got, err := coord.Query(context.Background(), targets, queries[qi])
				if err != nil {
					t.Error(err)
					return
				}
				if err := oracle.Equal(oracle.Answer(wants[qi]), oracle.Answer(got)); err != nil {
					t.Errorf("goroutine %d, query %d: %v", g, qi, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
