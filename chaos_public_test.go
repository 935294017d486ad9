package cubrick_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	cubrick "cubrick"
	"cubrick/internal/cluster"
)

// TestConcurrentQueriesDuringFailover drives parallel query traffic while
// hosts die and heal (run with -race). Answered queries must be exact; the
// proxy hides region failures.
func TestConcurrentQueriesDuringFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent chaos in -short mode")
	}
	cfg := cubrick.Defaults()
	cfg.Deployment.RacksPerRegion = 3
	cfg.Deployment.Transport.RequestFailureProb = 0
	cfg.Deployment.Policy.InitialPartitions = 4
	db, err := cubrick.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.CreateTable("m", demoSchema())
	n := 200
	dims := make([][]uint32, n)
	mets := make([][]float64, n)
	var want float64
	for i := 0; i < n; i++ {
		dims[i] = []uint32{uint32(i) % 30, uint32(i) % 20}
		mets[i] = []float64{float64(i)}
		want += float64(i)
	}
	if err := db.Load("m", dims, mets); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg, started sync.WaitGroup
	// Query workers; the chaos driver waits until each has issued at
	// least one query so goroutine scheduling cannot race the test end.
	for g := 0; g < 6; g++ {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			first := true
			for {
				select {
				case <-stop:
					if first {
						started.Done()
					}
					return
				default:
				}
				res, err := db.Query(context.Background(), "SELECT SUM(value) FROM m")
				if first {
					first = false
					started.Done()
				}
				if err != nil {
					continue // unavailability tolerated; wrongness is not
				}
				if res.Rows[0][0] != want {
					t.Errorf("wrong result under chaos: %v != %v", res.Rows[0][0], want)
					return
				}
			}
		}()
	}
	started.Wait()

	// Chaos driver: kill/heal east hosts while advancing simulated time.
	dep := db.Deployment()
	east := dep.Fleet.Region(dep.Config.Regions[0])
	for round := 0; round < 10; round++ {
		victim := east[round%len(east)]
		victim.SetState(cluster.Down)
		for i := 0; i < 8; i++ {
			db.Advance(10 * time.Second)
		}
		victim.SetState(cluster.Up)
		if node, err := dep.Node(victim.Name); err == nil {
			if ag, err := dep.Agent(victim.Name); err == nil && ag.Expired() {
				node.Reset()
				ag.Rejoin()
			}
		}
		db.Advance(time.Minute)
	}
	close(stop)
	wg.Wait()

	if db.Proxy().Queries.Value() == 0 {
		t.Fatal("no queries ran")
	}
}

// TestLargeDeploymentScales creates hundreds of tables — the multi-tenant
// population the paper targets — and verifies creation stays fast enough
// (delta-based discovery propagation keeps publishes O(1)) and queries
// stay contained.
func TestLargeDeploymentScales(t *testing.T) {
	if testing.Short() {
		t.Skip("large deployment in -short mode")
	}
	cfg := cubrick.Defaults()
	cfg.Deployment.RacksPerRegion = 4
	cfg.Deployment.HostsPerRack = 8
	cfg.Deployment.Policy.InitialPartitions = 8
	cfg.Deployment.Transport.RequestFailureProb = 0
	db, err := cubrick.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const tables = 300
	start := time.Now()
	for i := 0; i < tables; i++ {
		if err := db.CreateTable(fmt.Sprintf("tenant_%03d", i), demoSchema()); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if elapsed > 30*time.Second {
		t.Fatalf("creating %d tables took %s — table creation is not scaling", tables, elapsed)
	}
	// Every table stays contained to ≤ 8 hosts of the 32 per region.
	for _, name := range []string{"tenant_000", "tenant_150", "tenant_299"} {
		distinct, err := db.Deployment().DistinctHosts(name, "east")
		if err != nil {
			t.Fatal(err)
		}
		if distinct > 8 {
			t.Fatalf("%s touches %d hosts", name, distinct)
		}
	}
	// Queries work on a sample of tenants.
	db.Load("tenant_150", [][]uint32{{1, 1}, {2, 2}}, [][]float64{{3}, {4}})
	res, err := db.Query(context.Background(), "SELECT SUM(value) FROM tenant_150")
	if err != nil || res.Rows[0][0] != 7 {
		t.Fatalf("tenant query = %v, %v", res, err)
	}
}
