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
// dead partition, and a fault on t#1 — and holds every cell to the oracle:
// engine.Execute merged over the stores the answer must have come from,
// sorted and limited by Finalize.
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

		wantPartial := engine.NewPartial(q)
		for _, st := range []*brick.Store{freshStore, p1Store} {
			p, err := engine.Execute(st, q)
			if err != nil {
				t.Fatal(err)
			}
			if err := wantPartial.Merge(p); err != nil {
				t.Fatal(err)
			}
		}
		want := wantPartial.Finalize()

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

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
