package netexec

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
	tkt, err := w.Parts().Admission().Admit(context.Background(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	resp := postPartial(t, targets[0].URL, targets[0].Partition, q, map[string]string{HeaderTenant: "acme"})
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
	tkt, err := coord.Admission.Admit(context.Background(), "", 0)
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

// TestCoordinatorPropagatesAdmissionHeaders: tenant/priority from the
// request context must reach workers as headers.
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
	ctx := admission.WithMeta(context.Background(), admission.Meta{Tenant: "acme", Priority: 3})
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	if _, err := coord.Query(ctx, []Target{{URL: proxy.URL, Partition: targets[0].Partition}}, q); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if captured == nil {
		t.Fatal("no /partial request captured")
	}
	if got := captured.Get(HeaderTenant); got != "acme" {
		t.Fatalf("%s = %q, want acme", HeaderTenant, got)
	}
	if got := captured.Get(HeaderPriority); got != "3" {
		t.Fatalf("%s = %q, want 3", HeaderPriority, got)
	}
}
