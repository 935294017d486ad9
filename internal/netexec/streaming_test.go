package netexec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
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
			if err := locals[i].InsertBatchRows(perWorkerDims[i], perWorkerMets[i]); err != nil {
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
