package cubrick

import (
	"context"
	"testing"

	"cubrick/internal/engine"
)

// gen3Deployment opens a deployment whose nodes run the third-generation
// storage: tiny memory budgets force SSD eviction.
func gen3Deployment(t *testing.T) *Deployment {
	t.Helper()
	cfg := DefaultDeploymentConfig()
	cfg.Policy.InitialPartitions = 4
	cfg.Transport.RequestFailureProb = 0
	cfg.Node.MetricGen = Gen3
	cfg.Node.MemoryBudgetBytes = 2048
	d, err := Open(cfg, epoch)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGen3EvictsUnderPressure(t *testing.T) {
	d := gen3Deployment(t)
	d.CreateTable("big", smallSchema())
	want := loadRows(t, d, "big", 3000)

	evicted := 0
	for _, n := range d.Nodes() {
		for _, st := range n.parts.Stores() {
			evicted += st.EvictedBrickCount()
		}
	}
	if evicted == 0 {
		t.Fatal("tiny budget did not evict any bricks to SSD")
	}

	// Queries over evicted data still return exact results, paying IOPS.
	res, err := d.Query(context.Background(), "east", "big", sumQuery(), 0)
	if err != nil || res.Rows[0][0] != want {
		t.Fatalf("query over tiered store = %v, %v; want %v", res, err, want)
	}
	var reads int64
	for _, n := range d.Nodes() {
		reads += n.SSDReads()
	}
	if reads == 0 {
		t.Fatal("query over evicted bricks recorded no SSD reads")
	}
}

func TestGen3MetricsReflectSSDFootprint(t *testing.T) {
	d := gen3Deployment(t)
	d.CreateTable("big", smallSchema())
	loadRows(t, d, "big", 3000)

	shard := d.Catalog.ShardOf("big", 0)
	a, _ := d.SM.Assignment(ServiceName("east"), shard)
	node, _ := d.Node(a.Primary())
	load := node.ShardLoads()[shard]
	if load <= 0 {
		t.Fatalf("gen3 shard load = %v, want > 0 despite near-zero memory", load)
	}
	// Capacity reflects SSD size (memory × 10 in the model).
	if node.Capacity() <= float64(node.Host().CapacityBytes) {
		t.Fatal("gen3 capacity not scaled to SSD size")
	}
	if ws := node.WorkingSetBytes(0); ws <= 0 {
		t.Fatalf("working set = %d", ws)
	}
}

func TestGen3HotDataStaysResident(t *testing.T) {
	d := gen3Deployment(t)
	d.CreateTable("big", smallSchema())
	loadRows(t, d, "big", 3000)
	// Heat a narrow slice repeatedly, then apply pressure again.
	hotQ := &engine.Query{
		Aggregates: []engine.Aggregate{{Func: engine.Count, Alias: "n"}},
		Filter:     map[string][2]uint32{"ds": {0, 4}},
	}
	for i := 0; i < 30; i++ {
		if _, err := d.Query(context.Background(), "east", "big", hotQ, 0); err != nil {
			t.Fatal(err)
		}
	}
	readsBefore := int64(0)
	for _, n := range d.Nodes() {
		n.enforceBudget()
		readsBefore += n.SSDReads()
	}
	// Re-running the hot query should now mostly hit resident bricks: the
	// SSD read rate per query must drop relative to a cold query.
	for i := 0; i < 5; i++ {
		if _, err := d.Query(context.Background(), "east", "big", hotQ, 0); err != nil {
			t.Fatal(err)
		}
	}
	readsAfter := int64(0)
	for _, n := range d.Nodes() {
		readsAfter += n.SSDReads()
	}
	perQuery := float64(readsAfter-readsBefore) / 5
	if perQuery > 2 {
		t.Fatalf("hot query still causes %.1f SSD reads per run — working set not resident", perQuery)
	}
}
