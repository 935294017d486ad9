// Quickstart: open an in-process three-region Cubrick deployment, create a
// table, load rows, and query it through the fault-tolerant proxy.
//
// Run: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	cubrick "cubrick"
)

func main() {
	db, err := cubrick.Open(cubrick.Defaults())
	if err != nil {
		log.Fatal(err)
	}

	// A dashboard-style table: daily metric values per app and region.
	// Dimension values are small integers (dictionary-encode your strings);
	// each dimension's domain is range-partitioned into buckets, which is
	// what gives Cubrick its index-free filtering (Granular Partitioning).
	schema := cubrick.Schema{
		Dimensions: []cubrick.Dimension{
			{Name: "ds", Max: 365, Buckets: 73},  // day of year
			{Name: "region", Max: 8, Buckets: 8}, // deployment region
			{Name: "app", Max: 100, Buckets: 10}, // application id
		},
		Metrics: []cubrick.Metric{{Name: "value"}},
	}
	if err := db.CreateTable("daily_metrics", schema); err != nil {
		log.Fatal(err)
	}

	// Load a few thousand synthetic rows.
	var dims [][]uint32
	var metrics [][]float64
	for day := uint32(0); day < 30; day++ {
		for region := uint32(0); region < 8; region++ {
			for app := uint32(0); app < 20; app++ {
				dims = append(dims, []uint32{day, region, app})
				metrics = append(metrics, []float64{float64(day*10 + region + app)})
			}
		}
	}
	if err := db.Load("daily_metrics", dims, metrics); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d rows into daily_metrics\n", len(dims))

	// Interactive-style queries in CQL.
	for _, q := range []string{
		"SELECT COUNT(*) FROM daily_metrics",
		"SELECT SUM(value) AS total FROM daily_metrics WHERE ds < 7",
		"SELECT region, SUM(value) AS total FROM daily_metrics GROUP BY region ORDER BY total DESC LIMIT 3",
	} {
		res, err := db.Query(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s\n  columns: %v\n", q, res.Columns)
		for _, row := range res.Rows {
			fmt.Printf("  %v\n", row)
		}
		fmt.Printf("  (fan-out %d hosts, region %s, simulated latency %s)\n",
			res.Fanout, res.Region, res.Latency)
	}

	// The table is partially sharded: it touches only its partitions'
	// hosts, not the whole cluster.
	info := db.Tables()[0]
	fmt.Printf("\ntable %s has %d partitions — queries fan out to at most %d of the cluster's hosts\n",
		info.Name, info.Partitions, info.Partitions)
}
