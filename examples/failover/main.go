// Failover: kill hosts and watch the system heal — the proxy transparently
// retries queries in another region (§IV-D), heartbeat expiry triggers SM
// failovers, and the replacement server recovers the shard's data from a
// healthy region (§IV-E).
//
// Run: go run ./examples/failover
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	cubrick "cubrick"
	"cubrick/internal/cluster"
	icubrick "cubrick/internal/cubrick"
	"cubrick/internal/shardmgr"
)

func main() {
	cfg := cubrick.Defaults()
	cfg.Deployment.Transport.RequestFailureProb = 0
	// Give each region headroom: with as many hosts as partitions, every
	// failover target would already hold one of the table's shards and
	// reject the move as a collision (§IV-A).
	cfg.Deployment.RacksPerRegion = 3
	cfg.Deployment.HostsPerRack = 6
	db, err := cubrick.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	dep := db.Deployment()

	schema := cubrick.Schema{
		Dimensions: []cubrick.Dimension{{Name: "ds", Max: 30, Buckets: 6}},
		Metrics:    []cubrick.Metric{{Name: "value"}},
	}
	if err := db.CreateTable("revenue", schema); err != nil {
		log.Fatal(err)
	}
	var dims [][]uint32
	var metrics [][]float64
	var want float64
	for i := 0; i < 300; i++ {
		dims = append(dims, []uint32{uint32(i) % 30})
		metrics = append(metrics, []float64{float64(i)})
		want += float64(i)
	}
	if err := db.Load("revenue", dims, metrics); err != nil {
		log.Fatal(err)
	}

	dep.SM.OnMigration(func(ev shardmgr.MigrationEvent) {
		fmt.Printf("  [sm] %s migration: shard %d %s -> %s\n", ev.Kind, ev.Shard, ev.From, ev.To)
	})

	check := func(phase string) {
		res, err := db.Query(context.Background(), "SELECT SUM(value) FROM revenue")
		if err != nil {
			fmt.Printf("%s: query FAILED: %v\n", phase, err)
			return
		}
		status := "OK"
		if res.Rows[0][0] != want {
			status = fmt.Sprintf("WRONG (%v != %v)", res.Rows[0][0], want)
		}
		fmt.Printf("%s: sum=%v [%s] answered by region %s (retries so far: %d)\n",
			phase, res.Rows[0][0], status, res.Region, db.Proxy().Retries.Value())
	}

	check("baseline")

	// Kill the host serving partition 0 in the first region.
	shard := dep.Catalog.ShardOf("revenue", 0)
	a, _ := dep.SM.Assignment(icubrick.ServiceName(dep.Config.Regions[0]), shard)
	victim, _ := dep.Fleet.Host(a.Primary())
	fmt.Printf("\nkilling %s (serves revenue#0 in %s)\n", victim.Name, dep.Config.Regions[0])
	victim.SetState(cluster.Down)

	// Queries keep succeeding immediately: the proxy retries in another
	// region without the caller noticing.
	check("during outage")

	// Heartbeats lapse; SM detects the death and fails the shards over,
	// recovering data from a healthy region.
	fmt.Println("\nadvancing simulated time past the heartbeat TTL...")
	for i := 0; i < 20; i++ {
		db.Advance(10 * time.Second)
	}
	check("after failover")

	// Finally the broken host comes back from repair, empty, and rejoins.
	fmt.Printf("\n%s repaired and rejoining\n", victim.Name)
	victim.SetState(cluster.Up)
	node, _ := dep.Node(victim.Name)
	node.Reset()
	agent, _ := dep.Agent(victim.Name)
	if err := agent.Rejoin(); err != nil {
		log.Fatal(err)
	}
	check("after rejoin")

	fmt.Printf("\nproxy stats: queries=%d retries=%d failures=%d\n",
		db.Proxy().Queries.Value(), db.Proxy().Retries.Value(), db.Proxy().Failures.Value())
}
