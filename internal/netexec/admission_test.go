package netexec

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"cubrick/internal/admission"
	"cubrick/internal/brick"
	"cubrick/internal/engine"
	"cubrick/internal/metrics"
	"cubrick/internal/oracle"
	"cubrick/internal/partition"
)

// startMetricsCluster is startCluster with a metrics registry per worker so
// tests can observe the serving counters; cfg supplies the rest of the
// serving configuration.
func startMetricsCluster(t *testing.T, n, rows int, cfg partition.Config) ([]Target, []*Worker, *brick.Store, func()) {
	t.Helper()
	var targets []Target
	var workers []*Worker
	var servers []*httptest.Server
	whole, _ := brick.NewStore(testSchema())
	dimsPer := make([][][]uint32, n)
	metsPer := make([][][]float64, n)
	for i := 0; i < rows; i++ {
		dims := []uint32{uint32(i) % 30, uint32(i) % 20}
		mets := []float64{float64(i)}
		whole.Insert(dims, mets)
		w := i % n
		dimsPer[w] = append(dimsPer[w], dims)
		metsPer[w] = append(metsPer[w], mets)
	}
	for i := 0; i < n; i++ {
		cfg.Metrics = metrics.NewRegistry()
		w := NewWorker(cfg)
		workers = append(workers, w)
		srv := httptest.NewServer(w.Handler())
		servers = append(servers, srv)
		cl := &Client{BaseURL: srv.URL}
		part := "t#" + string(rune('0'+i))
		if err := cl.CreatePartition(context.Background(), part, testSchema()); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Load(context.Background(), part, dimsPer[i], metsPer[i]); err != nil {
			t.Fatal(err)
		}
		targets = append(targets, Target{URL: srv.URL, Partition: part})
	}
	cleanup := func() {
		for _, s := range servers {
			s.Close()
		}
	}
	return targets, workers, whole, cleanup
}

// TestConcurrentDistributedEqualsLocal: concurrent queries of several
// shapes through one coordinator, each worker answering them on brick
// passes that run side by side over the same stores, must each equal the
// single-store reference.
func TestConcurrentDistributedEqualsLocal(t *testing.T) {
	targets, _, whole, cleanup := startMetricsCluster(t, 3, 900, partition.Config{DecodedCacheBytes: 1 << 20})
	defer cleanup()
	queries := []*engine.Query{
		{Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value"}, {Func: engine.Count}},
			GroupBy: []string{"app"}, Filter: map[string][2]uint32{"ds": {0, 14}}},
		{Aggregates: []engine.Aggregate{{Func: engine.Max, Metric: "value"}}, GroupBy: []string{"ds", "app"}},
		{Aggregates: []engine.Aggregate{{Func: engine.Avg, Metric: "value"}}},
	}
	wants := make([]*engine.Result, len(queries))
	for i, q := range queries {
		wants[i] = oracle.Answer(reference(t, q, whole))
	}
	coord := &Coordinator{}
	errs := make([]error, 4*len(queries))
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := coord.Query(context.Background(), targets, queries[i%len(queries)])
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = oracle.Equal(wants[i%len(queries)], oracle.Answer(got))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d (%+v): %v", i, queries[i%len(queries)], err)
		}
	}
}

func postPartial(t *testing.T, url, partition string, q *engine.Query, hdr map[string]string) *http.Response {
	t.Helper()
	body, err := json.Marshal(map[string]any{"partitions": []string{partition}, "query": q})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/partial", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestWorkerShedReturns429: a full admission queue sheds with 429, which
// the resilience policy classifies retryable, and counts query.shed.
func TestWorkerShedReturns429(t *testing.T) {
	targets, workers, _, cleanup := startMetricsCluster(t, 1, 100, partition.Config{MaxConcurrent: 1})
	defer cleanup()
	w := workers[0]

	// Occupy the only slot so the next request sheds immediately.
	tkt, err := w.Parts().Admission().Admit(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	resp := postPartial(t, targets[0].URL, targets[0].Partition, q, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429", resp.StatusCode)
	}
	if got := w.Parts().Config().Metrics.CounterValues()["query.shed"]; got != 1 {
		t.Fatalf("query.shed = %d, want 1", got)
	}
	// The coordinator-side classification of that status is retryable, so
	// PR-3's policy will retry or fail over shed partials.
	if ClassifyError(&HTTPStatusError{Status: http.StatusTooManyRequests}) != Retryable {
		t.Fatal("429 must classify retryable")
	}
	// Across the wire the shed stays admission.ErrQueueFull, so a caller
	// above the coordinator answers it as its own shed; no other status does.
	if !errors.Is(fmt.Errorf("%w: %w", ErrWorkerFailed, &HTTPStatusError{Status: http.StatusTooManyRequests}), admission.ErrQueueFull) {
		t.Fatal("a wrapped 429 must match admission.ErrQueueFull")
	}
	if errors.Is(&HTTPStatusError{Status: http.StatusServiceUnavailable}, admission.ErrQueueFull) {
		t.Fatal("a 503 must not match admission.ErrQueueFull")
	}
	// A worker's 404 (a partition or join table it does not serve) stays
	// partition.ErrNoPartition the same way; a 410 does not.
	if !errors.Is(fmt.Errorf("%w: %w", ErrWorkerFailed, &HTTPStatusError{Status: http.StatusNotFound}), partition.ErrNoPartition) {
		t.Fatal("a wrapped 404 must match partition.ErrNoPartition")
	}
	if errors.Is(&HTTPStatusError{Status: http.StatusGone}, partition.ErrNoPartition) {
		t.Fatal("a 410 must not match partition.ErrNoPartition")
	}
	tkt.Release()

	// With the slot free the same request succeeds.
	resp = postPartial(t, targets[0].URL, targets[0].Partition, q, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release status = %d, want 200", resp.StatusCode)
	}
}

// TestCoordinatorAdmissionShed: coordinator-level admission sheds whole
// queries with ErrQueueFull and counts netexec.query.shed.
func TestCoordinatorAdmissionShed(t *testing.T) {
	targets, _, _, cleanup := startMetricsCluster(t, 1, 100, partition.Config{})
	defer cleanup()
	reg := metrics.NewRegistry()
	coord := &Coordinator{
		Metrics:   reg,
		Admission: admission.New(admission.Config{MaxConcurrent: 1, QueueDepth: 0, Metrics: reg}),
	}
	tkt, err := coord.Admission.Admit(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	if _, err := coord.Query(context.Background(), targets, q); !errors.Is(err, admission.ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if got := reg.CounterValues()["netexec.query.shed"]; got != 1 {
		t.Fatalf("netexec.query.shed = %d, want 1", got)
	}
	tkt.Release()
	if _, err := coord.Query(context.Background(), targets, q); err != nil {
		t.Fatalf("post-release query: %v", err)
	}
}

// TestCoordinatorPropagatesAdmissionHeaders: the priority from the
// request context must reach workers as a header.
func TestCoordinatorPropagatesAdmissionHeaders(t *testing.T) {
	targets, _, _, cleanup := startMetricsCluster(t, 1, 100, partition.Config{})
	defer cleanup()

	// Wrap the worker with a header-capturing proxy.
	var mu sync.Mutex
	var captured http.Header
	inner := targets[0].URL
	proxy := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/partial" {
			mu.Lock()
			captured = r.Header.Clone()
			mu.Unlock()
		}
		var body bytes.Buffer
		body.ReadFrom(r.Body)
		req, _ := http.NewRequest(r.Method, inner+r.URL.Path, &body)
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				rw.Header().Add(k, v)
			}
		}
		rw.WriteHeader(resp.StatusCode)
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		rw.Write(out.Bytes())
	}))
	defer proxy.Close()

	coord := &Coordinator{}
	ctx := admission.WithMeta(context.Background(), admission.Meta{Priority: 3})
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	if _, err := coord.Query(ctx, []Target{{URL: proxy.URL, Partition: targets[0].Partition}}, q); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if captured == nil {
		t.Fatal("no /partial request captured")
	}
	if got := captured.Get(HeaderPriority); got != "3" {
		t.Fatalf("%s = %q, want 3", HeaderPriority, got)
	}
}

// admittedWorker is a worker with admission and a metrics registry serving
// eight partitions of 50 rows each, p0 to p7.
func admittedWorker(t *testing.T) (*Worker, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	wk := NewWorker(partition.Config{MaxConcurrent: 4, QueueDepth: 4, Metrics: reg})
	for p := 0; p < 8; p++ {
		name := fmt.Sprintf("p%d", p)
		if err := wk.AddPartition(name, testSchema()); err != nil {
			t.Fatal(err)
		}
		st, _ := wk.Store(name)
		for r := 0; r < 50; r++ {
			if err := st.Insert([]uint32{uint32(r % 30), uint32(p)}, []float64{float64(r)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return wk, reg
}

// servePartialList posts one /partial call naming the partitions to the
// worker's handler and returns the status.
func servePartialList(t *testing.T, wk *Worker, names ...string) int {
	t.Helper()
	q := engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value"}}, GroupBy: []string{"app"}}
	body, err := json.Marshal(partialRequest{Partitions: names, Query: q})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	wk.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/partial", bytes.NewReader(body)))
	return rec.Code
}

// TestPartialCallTakesOneTicket: a /partial call is admitted as one query
// and executes as one pass, whatever the number of partitions it names —
// one query.queue_ms observation and one worker.execute.latency
// observation for a call naming eight partitions.
func TestPartialCallTakesOneTicket(t *testing.T) {
	wk, reg := admittedWorker(t)
	names := []string{"p3", "p0", "p7", "p1", "p6", "p2", "p5", "p4"}
	if code := servePartialList(t, wk, names...); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, name := range []string{"query.queue_ms", "worker.execute.latency"} {
		if got := reg.Histogram(name).Count(); got != 1 {
			t.Fatalf("%s count = %d after one call naming %d partitions, want 1", name, got, len(names))
		}
	}
	if got := reg.CounterValues()["worker.rows.scanned"]; got != 8*50 {
		t.Fatalf("worker.rows.scanned = %d, want %d", got, 8*50)
	}
	if wk.Parts().Admission().Running() != 0 {
		t.Fatal("the call kept its admission slot")
	}
}

// TestPartialMissingFailsBeforeAdmission: a call naming a partition the
// worker does not serve answers 404 before it queues or scans anything,
// even when the partitions listed before it are served.
func TestPartialMissingFailsBeforeAdmission(t *testing.T) {
	wk, reg := admittedWorker(t)
	if code := servePartialList(t, wk, "p0", "missing"); code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", code)
	}
	if got := reg.Histogram("query.queue_ms").Count(); got != 0 {
		t.Fatalf("query.queue_ms count = %d, want 0: the call was admitted", got)
	}
	if got := reg.CounterValues()["worker.rows.scanned"]; got != 0 {
		t.Fatalf("worker.rows.scanned = %d, want 0: p0 was scanned", got)
	}
}
