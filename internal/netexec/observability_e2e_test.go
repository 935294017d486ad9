package netexec

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cubrick/internal/engine"
	"cubrick/internal/metrics"
	"cubrick/internal/partition"
	"cubrick/internal/trace"
)

// TestChaosObservabilityEndToEnd is the harness test behind the PR's
// acceptance criterion: a replicated cluster under 2% server-side fault
// injection must produce, for a query that needed rescuing, a trace that
// (a) is retrievable by ID, (b) shows the rescuing retry in the tree,
// (c) accounts for >=95% of the measured wall time, and (d) continues on
// the worker side — the same trace ID is served by the worker's own
// /debug/trace endpoint with its scan/marshal spans. The /metrics and
// /stats planes are asserted over real HTTP along the way.
func TestChaosObservabilityEndToEnd(t *testing.T) {
	const (
		nWorkers   = 4
		partitions = 8
		rows       = 400
		failProb   = 0.02
	)
	var urls []string
	var servers []*httptest.Server
	for i := 0; i < nWorkers; i++ {
		w := NewWorker(partition.Config{Metrics: metrics.NewRegistry()})
		w.Tracer = trace.New(trace.Config{})
		wh := w.Handler()
		// Mirror the binary's layout: chaos injects on the data path only,
		// so the observability plane stays reachable while queries fail.
		mux := http.NewServeMux()
		mux.Handle("/", wh)
		mux.Handle("/partial", ChaosHandler(failProb, int64(1000+i), wh))
		srv := httptest.NewServer(mux)
		servers = append(servers, srv)
		urls = append(urls, srv.URL)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	cluster, err := NewCluster(urls, 0, &http.Client{Transport: NewTransport()})
	if err != nil {
		t.Fatal(err)
	}
	cluster.SetReplication(1)
	if err := cluster.CreateTable(context.Background(), "events", testSchema(), partitions); err != nil {
		t.Fatal(err)
	}
	dims := make([][]uint32, rows)
	mets := make([][]float64, rows)
	for i := 0; i < rows; i++ {
		dims[i] = []uint32{uint32(i) % 30, uint32(i) % 20}
		mets[i] = []float64{float64(i)}
	}
	if err := cluster.Load(context.Background(), "events", dims, mets); err != nil {
		t.Fatal(err)
	}

	tracer := trace.New(trace.Config{})
	reg := metrics.NewRegistry()
	coord := cluster.Coordinator()
	coord.Policy = QueryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
	coord.Metrics = reg
	coord.Tracer = tracer

	// Query until chaos hits one: with 8 partitions at 2% per request,
	// ~15% of queries need a retry, so a rescue shows up in the first few
	// dozen iterations; 400 makes the test effectively deterministic.
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	var rescued trace.TraceData
	var wall time.Duration
	found := false
	for i := 0; i < 400 && !found; i++ {
		start := time.Now()
		ctx, root := tracer.StartSpan(context.Background(), "coordinator.query")
		res, err := cluster.Query(ctx, "events", q)
		root.EndErr(err)
		wall = time.Since(start)
		if err != nil {
			t.Fatalf("query %d failed despite retries: %v", i, err)
		}
		if res.Rows[0][0] != rows {
			t.Fatalf("query %d count = %v, want %d", i, res.Rows[0][0], rows)
		}
		td, ok := tracer.Get(root.TraceID())
		if !ok {
			t.Fatalf("query %d trace %s not retained", i, root.TraceID())
		}
		for _, s := range td.Spans {
			if s.Name == "fetch" && s.Status == trace.StatusOK &&
				(s.Attrs["try"] != "1" || s.Attrs["role"] == "hedge") {
				rescued = td
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("400 chaos queries produced no retry/hedge rescue")
	}

	// (b) The rescue is visible in the rendered tree: a second fetch under
	// a partition span that still ended ok.
	tree := rescued.Tree()
	if !strings.Contains(tree, "try=2") && !strings.Contains(tree, "role=hedge") {
		t.Fatalf("rescue not visible in tree:\n%s", tree)
	}
	if !strings.Contains(tree, "chaos: injected failure") {
		t.Fatalf("injected fault not recorded on the failed fetch span:\n%s", tree)
	}

	// (c) The root span accounts for >=95% of the measured wall time.
	var root trace.SpanData
	for _, s := range rescued.Spans {
		if s.Name == "coordinator.query" {
			root = s
		}
	}
	wallMS := float64(wall) / float64(time.Millisecond)
	if root.DurationMS < 0.95*wallMS {
		t.Fatalf("root span %.3fms accounts for <95%% of %.3fms wall", root.DurationMS, wallMS)
	}
	if got := reg.CounterValues()["netexec.fetch.retries"]; got < 1 {
		t.Fatalf("retries counter = %d after a rescued query", got)
	}

	// (d) The trace continued on the worker side: at least one worker
	// serves the same trace ID from its own ring, with the remote
	// worker.partial span and the execute span's scan accounting.
	client := &http.Client{Timeout: 5 * time.Second}
	workerSide := false
	for _, u := range urls {
		resp, err := client.Get(u + "/debug/trace/" + rescued.ID)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			continue
		}
		var td trace.TraceData
		if err := json.NewDecoder(resp.Body).Decode(&td); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		var sawPartial, sawExecute bool
		for _, s := range td.Spans {
			switch s.Name {
			case "worker.partial":
				sawPartial = true
			case "worker.execute":
				// The skip counters ride next to the scan accounting on
				// every raw execution, folded or not.
				sawExecute = sawExecute || s.Attrs["rows_scanned"] != "" &&
					s.Attrs["runs_skipped"] != "" && s.Attrs["codes_skipped"] != "" && s.Attrs["bricks_stats_pruned"] != ""
			}
		}
		if sawPartial && sawExecute {
			workerSide = true
		}
	}
	if !workerSide {
		t.Fatal("no worker served the rescued trace with partial+execute spans")
	}

	// The worker metrics plane over real HTTP: Prometheus text with the
	// latency summary and the counters.
	resp, err := client.Get(urls[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("worker /metrics content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"# TYPE worker_partial_requests counter",
		"# TYPE worker_partial_latency summary",
		`worker_partial_latency{quantile="0.99"}`,
		"worker_partial_latency_count",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("worker /metrics missing %q:\n%s", want, text)
		}
	}

	// The coordinator registry exports the same way (the binary mounts it
	// at /metrics; here the handler is exercised directly).
	rec := httptest.NewRecorder()
	metrics.Handler(reg).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	ctext := rec.Body.String()
	for _, want := range []string{
		"# TYPE netexec_fetch_retries counter",
		"# TYPE netexec_query_latency summary",
		`netexec_query_latency{quantile="0.999"}`,
	} {
		if !strings.Contains(ctext, want) {
			t.Fatalf("coordinator /metrics missing %q:\n%s", want, ctext)
		}
	}
}
