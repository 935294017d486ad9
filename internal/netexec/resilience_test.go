package netexec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cubrick/internal/cluster"
	"cubrick/internal/engine"
	"cubrick/internal/metrics"
	"cubrick/internal/partition"
)

func TestClassifyError(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want ErrClass
	}{
		{"canceled", context.Canceled, Terminal},
		{"wrapped canceled", fmt.Errorf("do: %w", context.Canceled), Terminal},
		{"deadline (per-try)", context.DeadlineExceeded, Retryable},
		{"500", &HTTPStatusError{Status: 500}, Retryable},
		{"503", &HTTPStatusError{Status: 503}, Retryable},
		{"429", &HTTPStatusError{Status: 429}, Retryable},
		{"400", &HTTPStatusError{Status: 400}, Terminal},
		{"404", &HTTPStatusError{Status: 404}, Terminal},
		{"oversized partial", &PartialSizeError{Limit: 10}, Terminal},
		{"host down", fmt.Errorf("x: %w", cluster.ErrHostDown), Retryable},
		{"request failed", fmt.Errorf("x: %w", cluster.ErrRequestFailed), Retryable},
		{"sim timeout", cluster.ErrTimeout, Retryable},
		{"unknown transport", errors.New("read: connection reset by peer"), Retryable},
	}
	for _, tc := range cases {
		if got := ClassifyError(tc.err); got != tc.want {
			t.Errorf("%s: ClassifyError = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestBreakerCycle(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	g := NewBreakerGroupAt(BreakerConfig{FailureThreshold: 3, OpenTimeout: 10 * time.Second, HalfOpenSuccesses: 2}, clock)
	const host = "http://w1"

	if g.State(host) != BreakerClosed {
		t.Fatalf("fresh breaker state = %v", g.State(host))
	}
	// Failures below the threshold keep it closed.
	g.ReportFailure(host)
	g.ReportFailure(host)
	if !g.Allow(host) || g.State(host) != BreakerClosed {
		t.Fatalf("below threshold: state = %v", g.State(host))
	}
	// Third consecutive failure opens it.
	g.ReportFailure(host)
	if g.State(host) != BreakerOpen {
		t.Fatalf("at threshold: state = %v", g.State(host))
	}
	if g.Allow(host) {
		t.Fatal("open breaker admitted a request")
	}
	// Still open just before the timeout.
	now = now.Add(10*time.Second - time.Millisecond)
	if g.Allow(host) {
		t.Fatal("open breaker admitted a request before OpenTimeout")
	}
	// After the timeout: one probe allowed, a second concurrent one denied.
	now = now.Add(time.Millisecond)
	if !g.Allow(host) {
		t.Fatal("half-open probe denied")
	}
	if g.State(host) != BreakerHalfOpen {
		t.Fatalf("post-timeout state = %v", g.State(host))
	}
	if g.Allow(host) {
		t.Fatal("second concurrent probe admitted")
	}
	// Probe failure re-opens; the timer restarts.
	g.ReportFailure(host)
	if g.State(host) != BreakerOpen || g.Allow(host) {
		t.Fatalf("after probe failure: state = %v", g.State(host))
	}
	now = now.Add(10 * time.Second)
	if !g.Allow(host) {
		t.Fatal("second probe denied after re-open timeout")
	}
	// Two consecutive probe successes close it.
	g.ReportSuccess(host)
	if g.State(host) != BreakerHalfOpen {
		t.Fatalf("after first success: state = %v", g.State(host))
	}
	if !g.Allow(host) {
		t.Fatal("second probe denied after first success")
	}
	g.ReportSuccess(host)
	if g.State(host) != BreakerClosed {
		t.Fatalf("after enough successes: state = %v", g.State(host))
	}
	if !g.Allow(host) {
		t.Fatal("closed breaker denied a request")
	}
}

func TestBreakerMetrics(t *testing.T) {
	now := time.Unix(0, 0)
	g := NewBreakerGroupAt(BreakerConfig{FailureThreshold: 1, OpenTimeout: time.Second, HalfOpenSuccesses: 1}, func() time.Time { return now })
	reg := metrics.NewRegistry()
	g.Metrics = reg
	g.ReportFailure("h")
	now = now.Add(2 * time.Second)
	g.Allow("h")
	g.ReportFailure("h")
	vals := reg.CounterValues()
	if vals["netexec.breaker.opened"] != 1 || vals["netexec.breaker.reopened"] != 1 {
		t.Fatalf("breaker counters = %v", vals)
	}
}

// TestExactFailFast is the regression guard: with the default (exact)
// policy the first worker failure must fail the query immediately and
// cancel the in-flight peers, exactly as before the resilience layer.
func TestExactFailFast(t *testing.T) {
	var peerCanceled atomic.Bool
	started := make(chan struct{})
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server's background read can observe the
		// client disconnect and cancel the request context.
		io.Copy(io.Discard, r.Body)
		close(started)
		select {
		case <-r.Context().Done():
			peerCanceled.Store(true)
		case <-time.After(5 * time.Second):
		}
	}))
	defer stalled.Close()
	// The failing worker answers only once the stalled request is in flight,
	// so the cancellation the test asserts on is guaranteed to have a live
	// peer to hit.
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
		}
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer failing.Close()

	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	targets := []Target{
		{URL: stalled.URL, Partition: "a"},
		{URL: failing.URL, Partition: "b"},
	}
	start := time.Now()
	_, err := (&Coordinator{}).Query(context.Background(), targets, q)
	if !errors.Is(err, ErrWorkerFailed) {
		t.Fatalf("exact query with dead worker = %v, want ErrWorkerFailed", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("fail-fast took %v; peer cancellation is broken", elapsed)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !peerCanceled.Load() {
		if time.Now().After(deadline) {
			t.Fatal("peer request was not canceled after the first failure")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRetryRecovers: a worker that fails its first two requests must still
// serve the query under a 3-attempt policy, and the retry counter records
// the extra attempts.
func TestRetryRecovers(t *testing.T) {
	targets, _, cleanup := startCluster(t, 1, 100)
	defer cleanup()
	var calls atomic.Int64
	inner := targets[0].URL
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		// Proxy to the real worker.
		body, _ := io.ReadAll(r.Body)
		resp, err := http.Post(inner+r.URL.Path, r.Header.Get("Content-Type"), strings.NewReader(string(body)))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	defer flaky.Close()

	reg := metrics.NewRegistry()
	coord := &Coordinator{
		Policy:  QueryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
		Metrics: reg,
	}
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	res, err := coord.Query(context.Background(), []Target{{URL: flaky.URL, Partition: targets[0].Partition}}, q)
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if res.Rows[0][0] != 100 {
		t.Fatalf("count = %v, want 100", res.Rows[0][0])
	}
	if res.Coverage != 1 || len(res.MissingPartitions) != 0 {
		t.Fatalf("recovered query coverage = %v missing = %v", res.Coverage, res.MissingPartitions)
	}
	if got := reg.CounterValues()["netexec.fetch.retries"]; got != 2 {
		t.Fatalf("retries counter = %d, want 2", got)
	}
}

// TestReplicaFailover: the primary is permanently down; attempts must
// rotate to the replica URL and succeed without degradation.
func TestReplicaFailover(t *testing.T) {
	targets, _, cleanup := startCluster(t, 1, 50)
	defer cleanup()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	coord := &Coordinator{Policy: QueryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond}}
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	res, err := coord.Query(context.Background(), []Target{{
		URL:       dead.URL,
		Partition: targets[0].Partition,
		Replicas:  []string{targets[0].URL},
	}}, q)
	if err != nil {
		t.Fatalf("failover to replica failed: %v", err)
	}
	if res.Rows[0][0] != 50 || res.Coverage != 1 {
		t.Fatalf("failover result = %v coverage %v", res.Rows[0][0], res.Coverage)
	}
}

// TestDegradedCoverage: with MinCoverage < 1 an unreachable partition is
// dropped and the result reports the exact merged fraction; tightening
// MinCoverage past the achievable fraction fails the query.
func TestDegradedCoverage(t *testing.T) {
	targets, _, cleanup := startCluster(t, 4, 400)
	defer cleanup()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	targets[2].URL = dead.URL

	reg := metrics.NewRegistry()
	coord := &Coordinator{
		Policy:  QueryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MinCoverage: 0.5},
		Metrics: reg,
	}
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	res, err := coord.Query(context.Background(), targets, q)
	if err != nil {
		t.Fatalf("degraded query failed: %v", err)
	}
	if res.Coverage != 0.75 {
		t.Fatalf("coverage = %v, want exactly 0.75", res.Coverage)
	}
	if len(res.MissingPartitions) != 1 || res.MissingPartitions[0] != targets[2].Partition {
		t.Fatalf("missing = %v, want [%s]", res.MissingPartitions, targets[2].Partition)
	}
	// 400 rows round-robin over 4 partitions; one partition dropped.
	if res.Rows[0][0] != 300 {
		t.Fatalf("degraded count = %v, want 300", res.Rows[0][0])
	}
	if got := reg.CounterValues()["netexec.query.degraded"]; got != 1 {
		t.Fatalf("degraded counter = %d", got)
	}

	// The same layout under a stricter floor must fail.
	strict := &Coordinator{Policy: QueryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MinCoverage: 0.9}}
	if _, err := strict.Query(context.Background(), targets, q); !errors.Is(err, ErrWorkerFailed) {
		t.Fatalf("coverage below floor = %v, want ErrWorkerFailed", err)
	}
}

// TestHedgeWins: the primary stalls well past the hedge delay while the
// replica is fast; the hedged request must win and be counted.
func TestHedgeWins(t *testing.T) {
	targets, _, cleanup := startCluster(t, 1, 50)
	defer cleanup()
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(3 * time.Second):
			http.Error(w, "too slow to matter", http.StatusInternalServerError)
		}
	}))
	defer stall.Close()

	reg := metrics.NewRegistry()
	coord := &Coordinator{
		Policy: QueryPolicy{
			MaxAttempts:   1,
			HedgeQuantile: 0.95,
			HedgeMinDelay: 5 * time.Millisecond,
		},
		Metrics: reg,
	}
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	start := time.Now()
	res, err := coord.Query(context.Background(), []Target{{
		URL:       stall.URL,
		Partition: targets[0].Partition,
		Replicas:  []string{targets[0].URL},
	}}, q)
	if err != nil {
		t.Fatalf("hedged query failed: %v", err)
	}
	if res.Rows[0][0] != 50 {
		t.Fatalf("hedged count = %v", res.Rows[0][0])
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedge did not cut the straggler: %v", elapsed)
	}
	vals := reg.CounterValues()
	if vals["netexec.fetch.hedges"] < 1 || vals["netexec.fetch.hedge_wins"] < 1 {
		t.Fatalf("hedge counters = %v", vals)
	}
}

// TestPartialSizeBound: an oversized worker response must fail terminally
// with PartialSizeError instead of being buffered whole.
func TestPartialSizeBound(t *testing.T) {
	huge := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(make([]byte, 4096))
	}))
	defer huge.Close()
	coord := &Coordinator{MaxPartialBytes: 1024, Policy: QueryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond}}
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	_, err := coord.Query(context.Background(), []Target{{URL: huge.URL, Partition: "p"}}, q)
	var pe *PartialSizeError
	if !errors.As(err, &pe) {
		t.Fatalf("oversized partial = %v, want PartialSizeError", err)
	}
}

// TestLoadAllOrNothing: a JSON ingest batch with one invalid row must
// commit nothing and name the offending row index.
func TestLoadAllOrNothing(t *testing.T) {
	w := NewWorker(partition.Config{})
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	cl := &Client{BaseURL: srv.URL}
	if err := cl.CreatePartition(context.Background(), "p", testSchema()); err != nil {
		t.Fatal(err)
	}
	_, err := cl.Load(context.Background(), "p",
		[][]uint32{{1, 1}, {999, 1}, {2, 2}},
		[][]float64{{1}, {2}, {3}})
	if err == nil {
		t.Fatal("batch with invalid row accepted")
	}
	if !strings.Contains(err.Error(), "row 1") {
		t.Fatalf("error does not name the offending row: %v", err)
	}
	st, _ := w.Store("p")
	if n := st.Rows(); n != int64(0) {
		t.Fatalf("failed batch committed %d rows; ingest is not atomic", n)
	}
	// A valid batch still loads.
	if _, err := cl.Load(context.Background(), "p", [][]uint32{{1, 1}}, [][]float64{{1}}); err != nil {
		t.Fatal(err)
	}
	if n := st.Rows(); n != 1 {
		t.Fatalf("rows after valid batch = %d", n)
	}
}

// TestZeroPolicyIsBaseline: the zero QueryPolicy must mean one attempt, no
// hedging, exact semantics.
func TestZeroPolicyIsBaseline(t *testing.T) {
	var p QueryPolicy
	if !p.exact() || p.attempts() != 1 {
		t.Fatalf("zero policy: exact=%v attempts=%d", p.exact(), p.attempts())
	}
	var calls atomic.Int64
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer failing.Close()
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	if _, err := (&Coordinator{}).Query(context.Background(), []Target{{URL: failing.URL, Partition: "p"}}, q); err == nil {
		t.Fatal("baseline coordinator did not fail")
	}
	if calls.Load() != 1 {
		t.Fatalf("zero policy issued %d requests, want exactly 1", calls.Load())
	}
}

func TestBackoffAndJitter(t *testing.T) {
	p := QueryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 40 * time.Millisecond}
	wants := []time.Duration{10, 20, 40, 40}
	for i, want := range wants {
		if got := p.backoffFor(i); got != want*time.Millisecond {
			t.Fatalf("backoffFor(%d) = %v, want %v", i, got, want*time.Millisecond)
		}
	}
	for i := 0; i < 100; i++ {
		d := jitter(100 * time.Millisecond)
		if d < 50*time.Millisecond || d > 100*time.Millisecond {
			t.Fatalf("jitter out of [d/2, d]: %v", d)
		}
	}
	if jitter(0) != 0 {
		t.Fatal("jitter(0) != 0")
	}
}
