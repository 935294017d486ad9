package netexec

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sort"
	"testing"
	"time"

	"cubrick/internal/cluster"
	"cubrick/internal/engine"
	"cubrick/internal/metrics"
	"cubrick/internal/partition"
	"cubrick/internal/randutil"
)

// chaosConfig is the fault model the chaos tests drive into real HTTP:
// every request fails with the given probability, as the paper's "other
// non-deterministic sources of tail latency and errors" (§I).
func chaosConfig(failProb float64) cluster.TransportConfig {
	return cluster.TransportConfig{
		Latency:            randutil.DefaultLatencyModel(),
		RequestFailureProb: failProb,
		NetworkHop:         200 * time.Microsecond,
	}
}

// startReplicatedCluster spins nServers real HTTP workers and spreads
// `partitions` partitions over them: partition p's primary is server
// p%nServers and its single replica is the next server on the ring, with
// identical rows loaded to both copies. rowsPerPartition rows land in each
// partition. Returns the targets and the expected whole-table row count.
func startReplicatedCluster(t *testing.T, nServers, partitions, rowsPerPartition int) ([]Target, float64, func()) {
	t.Helper()
	if nServers < 2 {
		t.Fatal("replicated cluster needs at least 2 servers")
	}
	servers := make([]*httptest.Server, nServers)
	clients := make([]*Client, nServers)
	for i := range servers {
		servers[i] = httptest.NewServer(NewWorker(partition.Config{}).Handler())
		clients[i] = &Client{BaseURL: servers[i].URL}
	}
	ctx := context.Background()
	targets := make([]Target, partitions)
	for p := 0; p < partitions; p++ {
		part := fmt.Sprintf("t#%d", p)
		primary, replica := p%nServers, (p+1)%nServers
		dims := make([][]uint32, rowsPerPartition)
		mets := make([][]float64, rowsPerPartition)
		for r := 0; r < rowsPerPartition; r++ {
			dims[r] = []uint32{uint32(p+r) % 30, uint32(r) % 20}
			mets[r] = []float64{float64(r)}
		}
		for _, i := range []int{primary, replica} {
			if err := clients[i].CreatePartition(ctx, part, testSchema()); err != nil {
				t.Fatal(err)
			}
			if _, err := clients[i].Load(ctx, part, dims, mets); err != nil {
				t.Fatal(err)
			}
		}
		targets[p] = Target{
			URL:       servers[primary].URL,
			Partition: part,
			Replicas:  []string{servers[replica].URL},
		}
	}
	cleanup := func() {
		for _, s := range servers {
			s.Close()
		}
	}
	return targets, float64(partitions * rowsPerPartition), cleanup
}

// runChaosQueries issues n count(*) queries through coord and returns the
// fraction that succeeded with the exact expected count.
func runChaosQueries(t *testing.T, coord *Coordinator, targets []Target, wantRows float64, n int) float64 {
	t.Helper()
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	ok := 0
	for i := 0; i < n; i++ {
		res, err := coord.Query(context.Background(), targets, q)
		if err != nil {
			continue
		}
		if res.Rows[0][0] != wantRows {
			t.Fatalf("query %d returned wrong count %v (want %v): corruption, not just failure", i, res.Rows[0][0], wantRows)
		}
		ok++
	}
	return float64(ok) / float64(n)
}

// TestChaosSuccessRate is the acceptance experiment: with a seeded 2%%
// per-request failure probability at fan-out 64 (one replica per
// partition), the resilient coordinator must stay >= 99%% successful while
// the brittle baseline — whose success decays as (1-p)^n, the paper's
// scalability wall — is materially lower. n counts calls, and a query
// makes one call per placement: 64 partitions on 8 hosts are 8 calls.
func TestChaosSuccessRate(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos experiment is statistical; skipped in -short")
	}
	const (
		failProb = 0.02
		queries  = 100
		seed     = 42
	)
	for _, fanout := range []int{4, 16, 64} {
		fanout := fanout
		t.Run(fmt.Sprintf("fanout=%d", fanout), func(t *testing.T) {
			nServers := 8
			if fanout < nServers {
				nServers = fanout
			}
			targets, wantRows, cleanup := startReplicatedCluster(t, nServers, fanout, 50)
			defer cleanup()

			baselineRT := NewFaultRoundTripper(nil, chaosConfig(failProb), seed)
			baseline := &Coordinator{Client: &http.Client{Transport: baselineRT}}
			baseRate := runChaosQueries(t, baseline, targets, wantRows, queries)

			resilientRT := NewFaultRoundTripper(nil, chaosConfig(failProb), seed)
			resilient := &Coordinator{
				Client: &http.Client{Transport: resilientRT},
				Policy: QueryPolicy{
					MaxAttempts: 4,
					BaseBackoff: time.Millisecond,
					MaxBackoff:  4 * time.Millisecond,
					MinCoverage: 1,
				},
				Breakers: NewBreakerGroup(DefaultBreakerConfig()),
				Metrics:  metrics.NewRegistry(),
			}
			resRate := runChaosQueries(t, resilient, targets, wantRows, queries)

			t.Logf("fanout %d: baseline %.2f, resilient %.2f", fanout, baseRate, resRate)
			if resRate < 0.99 {
				t.Fatalf("resilient success rate %.3f < 0.99 at fanout %d", resRate, fanout)
			}
			// The host wall: baseline success ~ (1-p)^hosts. At fanout 64
			// on 8 hosts that is 0.98^8 ≈ 0.85, not the 0.98^64 ≈ 0.27 of a
			// call per partition; the bounds leave wide statistical slack.
			if fanout == 64 {
				if baseRate < 0.7 {
					t.Fatalf("baseline success rate %.3f is near the per-partition wall 0.98^64: calls are not one per host", baseRate)
				}
				if baseRate == 1 {
					t.Fatal("baseline never failed; fault injection is not biting")
				}
				if resRate <= baseRate {
					t.Fatalf("resilience did not improve on baseline: %.3f vs %.3f", resRate, baseRate)
				}
			}
		})
	}
}

// TestChaosBreakerSkipsDownHost: a host marked down via the fault injector
// keeps failing until its breaker opens; after that, queries route
// straight to the replica without burning attempts on the dead primary.
func TestChaosBreakerSkipsDownHost(t *testing.T) {
	targets, wantRows, cleanup := startReplicatedCluster(t, 2, 1, 40)
	defer cleanup()

	rt := NewFaultRoundTripper(nil, chaosConfig(0), 1)
	pu, err := url.Parse(targets[0].URL)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetHostDown(pu.Host, true)

	reg := metrics.NewRegistry()
	coord := &Coordinator{
		Client:   &http.Client{Transport: rt},
		Policy:   QueryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond},
		Breakers: NewBreakerGroupAt(BreakerConfig{FailureThreshold: 2, OpenTimeout: time.Hour, HalfOpenSuccesses: 1}, time.Now),
		Metrics:  reg,
	}
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	for i := 0; i < 4; i++ {
		res, err := coord.Query(context.Background(), targets, q)
		if err != nil {
			t.Fatalf("query %d failed despite replica: %v", i, err)
		}
		if res.Rows[0][0] != wantRows {
			t.Fatalf("query %d count = %v", i, res.Rows[0][0])
		}
	}
	if st := coord.Breakers.State(targets[0].URL); st != BreakerOpen {
		t.Fatalf("dead primary breaker state = %v, want open", st)
	}
	if skips := reg.CounterValues()["netexec.breaker.skips"]; skips < 1 {
		t.Fatalf("breaker never skipped the dead primary (skips=%d)", skips)
	}
	// Recovery: host comes back, breaker half-opens after the timeout. Use
	// a fresh group with an elapsed clock to avoid sleeping in the test.
	rt.SetHostDown(pu.Host, false)
	base := time.Now()
	coord.Breakers = NewBreakerGroupAt(BreakerConfig{FailureThreshold: 2, OpenTimeout: time.Millisecond, HalfOpenSuccesses: 1},
		func() time.Time { return base.Add(time.Second) })
	if _, err := coord.Query(context.Background(), targets, q); err != nil {
		t.Fatalf("query after host recovery failed: %v", err)
	}
}

// TestResilienceBench is the bench harness behind scripts/bench.sh: when
// RESILIENCE_BENCH_OUT is set it measures success rate and p99 latency
// under injected faults at fan-out 4/16/64, with and without the
// resilience layer, and writes the results as JSON.
func TestResilienceBench(t *testing.T) {
	out := os.Getenv("RESILIENCE_BENCH_OUT")
	if out == "" {
		t.Skip("set RESILIENCE_BENCH_OUT to run the resilience bench")
	}
	const (
		failProb = 0.02
		queries  = 100
		seed     = 7
	)
	type row struct {
		Fanout      int     `json:"fanout"`
		Mode        string  `json:"mode"`
		FailProb    float64 `json:"fail_prob"`
		Queries     int     `json:"queries"`
		SuccessRate float64 `json:"success_rate"`
		P50Ms       float64 `json:"p50_ms"`
		P99Ms       float64 `json:"p99_ms"`
	}
	var rows []row
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	for _, fanout := range []int{4, 16, 64} {
		nServers := 8
		if fanout < nServers {
			nServers = fanout
		}
		targets, wantRows, cleanup := startReplicatedCluster(t, nServers, fanout, 50)
		for _, mode := range []string{"baseline", "resilient"} {
			rt := NewFaultRoundTripper(nil, chaosConfig(failProb), seed)
			// A small latency scale keeps the heavy-tail *shape* of the
			// model while staying test-fast.
			rt.LatencyScale = 0.001
			coord := &Coordinator{Client: &http.Client{Transport: rt}}
			if mode == "resilient" {
				coord.Policy = QueryPolicy{
					MaxAttempts:   4,
					BaseBackoff:   time.Millisecond,
					MaxBackoff:    4 * time.Millisecond,
					HedgeQuantile: 0.95,
					HedgeMinDelay: 5 * time.Millisecond,
					MinCoverage:   1,
				}
				coord.Breakers = NewBreakerGroup(DefaultBreakerConfig())
				coord.Metrics = metrics.NewRegistry()
			}
			ok := 0
			lats := make([]float64, 0, queries)
			for i := 0; i < queries; i++ {
				start := time.Now()
				res, err := coord.Query(context.Background(), targets, q)
				lats = append(lats, float64(time.Since(start).Microseconds())/1000)
				if err == nil && res.Rows[0][0] == wantRows {
					ok++
				}
			}
			sort.Float64s(lats)
			rows = append(rows, row{
				Fanout:      fanout,
				Mode:        mode,
				FailProb:    failProb,
				Queries:     queries,
				SuccessRate: float64(ok) / float64(queries),
				P50Ms:       lats[len(lats)/2],
				P99Ms:       lats[len(lats)*99/100],
			})
		}
		cleanup()
	}
	blob, err := json.MarshalIndent(map[string]interface{}{
		"benchmark": "netexec resilience under injected faults",
		"results":   rows,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
