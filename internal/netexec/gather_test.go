package netexec

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cubrick/internal/brick"
	"cubrick/internal/engine"
	"cubrick/internal/metrics"
	"cubrick/internal/partition"
	"cubrick/internal/rescache"
)

// gatherSkew is one row of TestGatherStrategies' data axis: rows of
// (ds, app, value) for partitions t#0 and t#1, and the rows a fresher copy
// of t#0 holds on top. The query — the top app by SUM(value) — is answered
// from merged full partials on every row; the rows keep the names of the
// top-k pushdown outcomes their skews once provoked, when the coordinator
// had a second merge path.
type gatherSkew struct {
	name   string
	p0, p1 [][3]float64
	fresh  [][3]float64
}

var gatherSkews = []gatherSkew{
	// app 1 leads on both partitions.
	{name: "plain",
		p0: [][3]float64{{0, 1, 100}, {1, 2, 5}}, p1: [][3]float64{{0, 1, 50}, {1, 3, 4}},
		fresh: [][3]float64{{2, 1, 1}}},
	// apps 1 and 2 tie for the top, with and without the fresher rows:
	// LIMIT 1 keeps the lower key.
	{name: "topk-one-phase",
		p0: [][3]float64{{0, 1, 100}, {1, 2, 5}}, p1: [][3]float64{{0, 2, 95}, {1, 3, 4}},
		fresh: [][3]float64{{2, 1, 1}, {3, 2, 1}}},
	// app 2 is t#1's leader and hides below t#0's; app 1 still wins.
	{name: "topk-two-phase",
		p0: [][3]float64{{0, 1, 100}, {1, 2, 5}, {2, 3, 10}}, p1: [][3]float64{{0, 2, 90}, {1, 4, 8}},
		fresh: [][3]float64{{3, 1, 1}, {4, 3, 1}}},
	// Each partition's runner-up is close behind its leader; app 1, t#0's
	// leader, wins.
	{name: "topk-fallback",
		p0: [][3]float64{{0, 1, 100}, {1, 2, 90}}, p1: [][3]float64{{0, 3, 50}, {1, 4, 45}},
		fresh: [][3]float64{{2, 1, 1}}},
}

// gatherWorker starts a worker holding one partition with the given loads
// (one epoch each) and returns its URL with a store holding the same rows.
func gatherWorker(t *testing.T, part string, loads ...[][3]float64) (string, *brick.Store) {
	t.Helper()
	srv := httptest.NewServer(NewWorker(partition.Config{}).Handler())
	t.Cleanup(srv.Close)
	cl := &Client{BaseURL: srv.URL}
	if err := cl.CreatePartition(context.Background(), part, testSchema()); err != nil {
		t.Fatal(err)
	}
	st, _ := brick.NewStore(testSchema())
	for _, rows := range loads {
		loadRows(t, cl, part, st, rows)
	}
	return srv.URL, st
}

// TestGatherStrategies crosses leaderboard skews with everything the one
// fan-out handles — a dual-read window on t#0, a degradation policy with a
// dead partition, and a fault on t#1 — and holds every cell to the answer
// of oracle.Run over the stores it must have come from. Its co-location axis puts t#0 and t#1 on
// one worker, answered in one call: a fault on that call is a fault on
// both partitions, so they retry, fail or go missing together.
func TestGatherStrategies(t *testing.T) {
	q := &engine.Query{
		Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value", Alias: "total"}},
		GroupBy:    []string{"app"},
		OrderBy:    "total",
		Desc:       true,
		Limit:      1,
	}
	status := func(code int) string {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "injected", code)
		}))
		t.Cleanup(srv.Close)
		return srv.URL
	}
	fail500, fail400 := status(http.StatusInternalServerError), status(http.StatusBadRequest)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	for _, s := range gatherSkews {
		staleURL, _ := gatherWorker(t, "t#0", s.p0)
		freshURL, freshStore := gatherWorker(t, "t#0", s.p0, s.fresh)
		p1URL, p1Store := gatherWorker(t, "t#1", s.p1)
		// The same worker behind a proxy that drops the epoch header.
		target, _ := url.Parse(p1URL)
		strip := httputil.NewSingleHostReverseProxy(target)
		strip.ModifyResponse = func(r *http.Response) error { r.Header.Del(HeaderEpoch); return nil }
		stripSrv := httptest.NewServer(strip)
		t.Cleanup(stripSrv.Close)

		want := reference(t, q, freshStore, p1Store)

		duals := []struct {
			name string
			t0   Target
		}{
			{"no-dual", Target{URL: freshURL, Partition: "t#0"}},
			{"old-owner-fresher", Target{URL: staleURL, Partition: "t#0", Dual: []string{freshURL}}},
			{"new-owner-fresher", Target{URL: freshURL, Partition: "t#0", Dual: []string{staleURL}}},
		}
		faults := []struct {
			name    string
			t1      Target
			fails   bool
			noEpoch bool
		}{
			{name: "no-fault", t1: Target{URL: p1URL, Partition: "t#1"}},
			{name: "retry-on-replica", t1: Target{URL: fail500, Partition: "t#1", Replicas: []string{p1URL}}},
			{name: "terminal", t1: Target{URL: fail400, Partition: "t#1"}, fails: true},
			{name: "no-epoch-header", t1: Target{URL: stripSrv.URL, Partition: "t#1"}, noEpoch: true},
		}
		colocatedCells(t, q, s, want, fail500, fail400, dead.URL)
		for _, d := range duals {
			for _, degrade := range []bool{false, true} {
				for _, f := range faults {
					name := fmt.Sprintf("%s/%s/degrade=%v/%s", s.name, d.name, degrade, f.name)
					t.Run(name, func(t *testing.T) {
						tr := NewTransport()
						reg := metrics.NewRegistry()
						coord := &Coordinator{
							Client:      &http.Client{Transport: tr},
							Policy:      QueryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond},
							Metrics:     reg,
							ResultCache: rescache.New(1 << 20),
						}
						targets := []Target{d.t0, f.t1}
						if degrade {
							// One dead partition of three: coverage 2/3 clears
							// the minimum, so the live two are the answer —
							// unless the fault takes a second one away.
							coord.Policy.MinCoverage = 0.5
							targets = append(targets, Target{URL: dead.URL, Partition: "t#2"})
						}
						baseline := runtime.NumGoroutine()
						got, err := coord.Query(context.Background(), targets, q)
						c := reg.CounterValues()
						if f.fails {
							if !errors.Is(err, ErrWorkerFailed) {
								t.Fatalf("err = %v, want ErrWorkerFailed", err)
							}
							if c["netexec.query.failed"] != 1 {
								t.Fatalf("netexec.query.failed = %d, want 1", c["netexec.query.failed"])
							}
							// Fail fast leaves nothing behind: the peers were
							// cancelled and every fetch goroutine has exited.
							tr.CloseIdleConnections()
							for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
								if time.Now().After(deadline) {
									t.Fatalf("%d goroutines after a failed query, %d before", runtime.NumGoroutine(), baseline)
								}
							}
							return
						}
						if err != nil {
							t.Fatal(err)
						}
						tr.CloseIdleConnections()
						queryEqual(t, got, want)

						if dual := len(d.t0.Dual) > 0; (c["netexec.fetch.dualreads"] > 0) != dual {
							t.Fatalf("netexec.fetch.dualreads = %d with dual=%v", c["netexec.fetch.dualreads"], dual)
						}
						if oldWins := d.name == "old-owner-fresher"; (c["netexec.fetch.dual_wins"] > 0) != oldWins {
							t.Fatalf("netexec.fetch.dual_wins = %d for %s", c["netexec.fetch.dual_wins"], d.name)
						}
						// The dead partition is retried too before it is dropped.
						if retried := f.name == "retry-on-replica" || degrade; (c["netexec.fetch.retries"] > 0) != retried {
							t.Fatalf("netexec.fetch.retries = %d for %s", c["netexec.fetch.retries"], f.name)
						}
						if degrade {
							if got.Coverage != 2.0/3 || len(got.MissingPartitions) != 1 || got.MissingPartitions[0] != "t#2" {
								t.Fatalf("coverage %v missing %v, want 2/3 and [t#2]", got.Coverage, got.MissingPartitions)
							}
						} else if got.Coverage != 1 || got.MissingPartitions != nil {
							t.Fatalf("coverage %v missing %v on a full answer", got.Coverage, got.MissingPartitions)
						}

						// The result enters the cache exactly when gather
						// returned a full epoch vector.
						cacheable := !degrade && !f.noEpoch
						if n := coord.ResultCache.Stats().Entries; n != int64(b2i(cacheable)) {
							t.Fatalf("result cache entries = %d, cacheable = %v", n, cacheable)
						}
						_, known := coord.KnownEpoch("t#0")
						if !known {
							t.Fatal("t#0's epoch was not observed")
						}
					})
				}
			}
		}
	}
}

// colocatedCells runs TestGatherStrategies' co-location axis for skew s:
// t#0 (with the fresher rows) and t#1 on one worker, so one call answers
// both. want is the answer over both partitions.
func colocatedCells(t *testing.T, q *engine.Query, s gatherSkew, want *engine.Result, fail500, fail400, deadURL string) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(countingHandler(NewWorker(partition.Config{}).Handler(), &calls))
	t.Cleanup(srv.Close)
	cl := &Client{BaseURL: srv.URL}
	for _, part := range []string{"t#0", "t#1"} {
		if err := cl.CreatePartition(context.Background(), part, testSchema()); err != nil {
			t.Fatal(err)
		}
	}
	for _, rows := range [][][3]float64{s.p0, s.fresh} {
		loadRows(t, cl, "t#0", nil, rows)
	}
	loadRows(t, cl, "t#1", nil, s.p1)
	// A partition on a host of its own: what is left when the shared call
	// dies.
	p2URL, p2Store := gatherWorker(t, "t#2", s.p1)
	wantP2 := reference(t, q, p2Store)

	faults := []struct {
		name    string
		urls    []string // the shared placement of t#0 and t#1
		fails   bool
		deadAll bool // degrade only: the shared call dies, t#2 answers
	}{
		{name: "no-fault", urls: []string{srv.URL}},
		{name: "retry-on-replica", urls: []string{fail500, srv.URL}},
		{name: "terminal", urls: []string{fail400}, fails: true},
		{name: "shared-call-dead", urls: []string{deadURL}, deadAll: true},
	}
	for _, degrade := range []bool{false, true} {
		for _, f := range faults {
			if f.deadAll && !degrade {
				continue // an exact query over a dead call is the terminal cell
			}
			t.Run(fmt.Sprintf("%s/colocated/degrade=%v/%s", s.name, degrade, f.name), func(t *testing.T) {
				tr := NewTransport()
				defer tr.CloseIdleConnections()
				reg := metrics.NewRegistry()
				coord := &Coordinator{
					Client:      &http.Client{Transport: tr},
					Policy:      QueryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond},
					Metrics:     reg,
					ResultCache: rescache.New(1 << 20),
				}
				targets := []Target{
					{URL: f.urls[0], Partition: "t#0", Replicas: f.urls[1:]},
					{URL: f.urls[0], Partition: "t#1", Replicas: f.urls[1:]},
				}
				if degrade {
					// One partition of three on a host of its own: dead unless
					// the shared call is, so coverage is 2/3 or 1/3.
					coord.Policy.MinCoverage = 0.3
					third := deadURL
					if f.deadAll {
						third = p2URL
					}
					targets = append(targets, Target{URL: third, Partition: "t#2"})
				}
				calls.Store(0)
				got, err := coord.Query(context.Background(), targets, q)
				c := reg.CounterValues()
				if f.fails {
					if !errors.Is(err, ErrWorkerFailed) {
						t.Fatalf("err = %v, want ErrWorkerFailed", err)
					}
					if c["netexec.query.failed"] != 1 {
						t.Fatalf("netexec.query.failed = %d, want 1", c["netexec.query.failed"])
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if n := calls.Load(); n != b2i(!f.deadAll) {
					t.Fatalf("%d /partial calls at the shared worker, want %d", n, b2i(!f.deadAll))
				}
				if retried := f.name == "retry-on-replica" || degrade; (c["netexec.fetch.retries"] > 0) != retried {
					t.Fatalf("netexec.fetch.retries = %d for %s", c["netexec.fetch.retries"], f.name)
				}
				switch {
				case f.deadAll:
					queryEqual(t, got, wantP2)
					if got.Coverage != 1.0/3 || len(got.MissingPartitions) != 2 ||
						got.MissingPartitions[0] != "t#0" || got.MissingPartitions[1] != "t#1" {
						t.Fatalf("coverage %v missing %v, want 1/3 and [t#0 t#1]", got.Coverage, got.MissingPartitions)
					}
				case degrade:
					queryEqual(t, got, want)
					if got.Coverage != 2.0/3 || len(got.MissingPartitions) != 1 || got.MissingPartitions[0] != "t#2" {
						t.Fatalf("coverage %v missing %v, want 2/3 and [t#2]", got.Coverage, got.MissingPartitions)
					}
				default:
					queryEqual(t, got, want)
					if got.Coverage != 1 || got.MissingPartitions != nil {
						t.Fatalf("coverage %v missing %v on a full answer", got.Coverage, got.MissingPartitions)
					}
				}
				// Cached exactly when nothing was dropped: the one call
				// answered with an epoch for each of its partitions.
				if n := coord.ResultCache.Stats().Entries; n != b2i(!degrade) {
					t.Fatalf("result cache entries = %d, degrade = %v", n, degrade)
				}
				for _, part := range []string{"t#0", "t#1"} {
					if _, known := coord.KnownEpoch(part); known == f.deadAll {
						t.Fatalf("%s's epoch known = %v with the shared call dead = %v", part, known, f.deadAll)
					}
				}
			})
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
