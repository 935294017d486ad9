package proxy

import (
	"context"
	"errors"
	"testing"
	"time"

	"cubrick/internal/brick"
	"cubrick/internal/cluster"
	"cubrick/internal/core"
	"cubrick/internal/cubrick"
	"cubrick/internal/engine"
	"cubrick/internal/randutil"
)

var epoch = time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)

func schema() brick.Schema {
	return brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "ds", Max: 30, Buckets: 6},
			{Name: "app", Max: 20, Buckets: 4},
		},
		Metrics: []brick.Metric{{Name: "value"}},
	}
}

func setup(t *testing.T) (*cubrick.Deployment, *Proxy, float64) {
	t.Helper()
	cfg := cubrick.DefaultDeploymentConfig()
	cfg.Policy.InitialPartitions = 4
	cfg.Transport.RequestFailureProb = 0
	d, err := cubrick.Open(cfg, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("metrics", schema()); err != nil {
		t.Fatal(err)
	}
	n := 200
	dims := make([][]uint32, n)
	mets := make([][]float64, n)
	var want float64
	for i := 0; i < n; i++ {
		dims[i] = []uint32{uint32(i) % 30, uint32(i) % 20}
		mets[i] = []float64{float64(i)}
		want += float64(i)
	}
	if err := d.Load("metrics", dims, mets); err != nil {
		t.Fatal(err)
	}
	p := New(d, Config{BlacklistThreshold: 3}, randutil.New(9))
	return d, p, want
}

func sumQuery() *engine.Query {
	return &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value", Alias: "total"}}}
}

func TestProxyQueryHappyPath(t *testing.T) {
	_, p, want := setup(t)
	res, err := p.Query(context.Background(), "metrics", sumQuery())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != want {
		t.Fatalf("sum = %v, want %v", res.Rows[0][0], want)
	}
	if p.Queries.Value() != 1 || p.Failures.Value() != 0 {
		t.Fatalf("stats: queries=%d failures=%d", p.Queries.Value(), p.Failures.Value())
	}
	if p.Latency.Count() != 1 {
		t.Fatal("latency not recorded")
	}
	// Result metadata primed the partition cache (strategy 4).
	if p.Cache().Get("metrics") != 4 {
		t.Fatalf("cache = %d, want 4", p.Cache().Get("metrics"))
	}
}

func TestProxyRetriesAcrossRegions(t *testing.T) {
	d, p, want := setup(t)
	// Kill a host serving partition 0 in the first preferred region.
	shard := d.Catalog.ShardOf("metrics", 0)
	a, _ := d.SM.Assignment(cubrick.ServiceName(d.Config.Regions[0]), shard)
	h, _ := d.Fleet.Host(a.Primary())
	h.SetState(cluster.Down)

	res, err := p.Query(context.Background(), "metrics", sumQuery())
	if err != nil {
		t.Fatalf("proxy did not recover via another region: %v", err)
	}
	if res.Rows[0][0] != want {
		t.Fatalf("sum = %v, want %v", res.Rows[0][0], want)
	}
	if res.Region == d.Config.Regions[0] {
		t.Fatal("query claims to have run in the dead region")
	}
	if p.Retries.Value() == 0 {
		t.Fatal("no retry recorded")
	}
}

func TestProxyAllRegionsFailed(t *testing.T) {
	d, p, _ := setup(t)
	// Kill partition 0's host in every region.
	shard := d.Catalog.ShardOf("metrics", 0)
	for _, region := range d.Config.Regions {
		a, _ := d.SM.Assignment(cubrick.ServiceName(region), shard)
		h, _ := d.Fleet.Host(a.Primary())
		h.SetState(cluster.Down)
	}
	_, err := p.Query(context.Background(), "metrics", sumQuery())
	if !errors.Is(err, ErrAllRegionsFailed) {
		t.Fatalf("query = %v, want ErrAllRegionsFailed", err)
	}
	if p.Failures.Value() != 1 {
		t.Fatalf("failures = %d", p.Failures.Value())
	}
}

func TestProxyBlacklisting(t *testing.T) {
	d, p, _ := setup(t)
	shard := d.Catalog.ShardOf("metrics", 0)
	for _, region := range d.Config.Regions {
		a, _ := d.SM.Assignment(cubrick.ServiceName(region), shard)
		h, _ := d.Fleet.Host(a.Primary())
		h.SetState(cluster.Down)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Query(context.Background(), "metrics", sumQuery()); err == nil {
			t.Fatal("query should fail")
		}
	}
	if !p.Blacklisted("metrics") {
		t.Fatal("table not blacklisted after threshold failures")
	}
	if _, err := p.Query(context.Background(), "metrics", sumQuery()); !errors.Is(err, ErrBlacklisted) {
		t.Fatalf("blacklisted query = %v", err)
	}
	// Operator clears the blacklist; hosts recover; queries work again.
	for _, region := range d.Config.Regions {
		a, _ := d.SM.Assignment(cubrick.ServiceName(region), shard)
		h, _ := d.Fleet.Host(a.Primary())
		h.SetState(cluster.Up)
	}
	p.Unblacklist("metrics")
	if _, err := p.Query(context.Background(), "metrics", sumQuery()); err != nil {
		t.Fatalf("query after unblacklist: %v", err)
	}
}

func TestProxySuccessResetsFailureCount(t *testing.T) {
	d, p, _ := setup(t)
	shard := d.Catalog.ShardOf("metrics", 0)
	var killed []*cluster.Host
	for _, region := range d.Config.Regions {
		a, _ := d.SM.Assignment(cubrick.ServiceName(region), shard)
		h, _ := d.Fleet.Host(a.Primary())
		h.SetState(cluster.Down)
		killed = append(killed, h)
	}
	// Two failures (below threshold of 3)...
	p.Query(context.Background(), "metrics", sumQuery())
	p.Query(context.Background(), "metrics", sumQuery())
	// ...then recovery and a success.
	for _, h := range killed {
		h.SetState(cluster.Up)
	}
	if _, err := p.Query(context.Background(), "metrics", sumQuery()); err != nil {
		t.Fatal(err)
	}
	// Two more failures must NOT blacklist (counter was reset).
	for _, h := range killed {
		h.SetState(cluster.Down)
	}
	p.Query(context.Background(), "metrics", sumQuery())
	p.Query(context.Background(), "metrics", sumQuery())
	if p.Blacklisted("metrics") {
		t.Fatal("blacklisted despite interleaved success")
	}
}

func TestProxyAdmissionControl(t *testing.T) {
	d, _, _ := setup(t)
	p := New(d, Config{MaxConcurrent: 0}, randutil.New(1))
	if _, err := p.Query(context.Background(), "metrics", sumQuery()); err != nil {
		t.Fatalf("unlimited admission rejected: %v", err)
	}
	// Saturate a 1-slot proxy by grabbing the slot manually.
	p2 := New(d, Config{MaxConcurrent: 1}, randutil.New(1))
	if err := p2.admit(); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Query(context.Background(), "metrics", sumQuery()); !errors.Is(err, ErrAdmission) {
		t.Fatalf("saturated proxy = %v, want ErrAdmission", err)
	}
	p2.release()
	if _, err := p2.Query(context.Background(), "metrics", sumQuery()); err != nil {
		t.Fatalf("freed proxy rejected: %v", err)
	}
	if p2.Rejections.Value() != 1 {
		t.Fatalf("rejections = %d", p2.Rejections.Value())
	}
}

func TestProxyUnknownTableFailsFast(t *testing.T) {
	_, p, _ := setup(t)
	_, err := p.Query(context.Background(), "ghost", sumQuery())
	if err == nil || errors.Is(err, ErrAllRegionsFailed) {
		t.Fatalf("unknown table = %v, want fast semantic failure", err)
	}
	if p.Retries.Value() != 0 {
		t.Fatal("semantic error caused cross-region retries")
	}
}

func TestProxyCacheRefreshAfterRepartition(t *testing.T) {
	cfg := cubrick.DefaultDeploymentConfig()
	cfg.Policy.InitialPartitions = 2
	cfg.Policy.MaxPartitionBytes = 1024
	cfg.Policy.MinPartitionBytes = 8
	cfg.Transport.RequestFailureProb = 0
	d, err := cubrick.Open(cfg, epoch)
	if err != nil {
		t.Fatal(err)
	}
	d.CreateTable("t", schema())
	n := 1000
	dims := make([][]uint32, n)
	mets := make([][]float64, n)
	for i := 0; i < n; i++ {
		dims[i] = []uint32{uint32(i) % 30, uint32(i) % 20}
		mets[i] = []float64{1}
	}
	d.Load("t", dims, mets)
	p := New(d, Config{}, randutil.New(2))
	if _, err := p.Query(context.Background(), "t", sumQuery()); err != nil {
		t.Fatal(err)
	}
	if p.Cache().Get("t") != 2 {
		t.Fatalf("cache = %d, want 2", p.Cache().Get("t"))
	}
	if _, _, err := d.Repartition("t"); err != nil {
		t.Fatal(err)
	}
	// Next query's result metadata refreshes the cache (§IV-C).
	if _, err := p.Query(context.Background(), "t", sumQuery()); err != nil {
		t.Fatal(err)
	}
	if got := p.Cache().Get("t"); got != 4 {
		t.Fatalf("cache after repartition = %d, want 4", got)
	}
}

func TestProxyStrategyConfigurable(t *testing.T) {
	d, _, _ := setup(t)
	p := New(d, Config{Strategy: core.AlwaysPartitionZero}, randutil.New(3))
	res, err := p.Query(context.Background(), "metrics", sumQuery())
	if err != nil {
		t.Fatal(err)
	}
	// Strategy 1 always coordinates on partition 0's host.
	shard := d.Catalog.ShardOf("metrics", 0)
	a, _ := d.SM.Assignment(cubrick.ServiceName(res.Region), shard)
	if res.Coordinator != a.Primary() {
		t.Fatalf("coordinator = %s, want partition 0 host %s", res.Coordinator, a.Primary())
	}
}
