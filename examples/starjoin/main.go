// Starjoin: the replicated-dimension-table pattern of §II-B — small,
// frequently joined tables are replicated to all cluster nodes so star
// joins against large sharded fact tables run entirely node-local, keeping
// the partial-sharding fan-out guarantee intact.
//
// Run: go run ./examples/starjoin
package main

import (
	"context"
	"fmt"
	"log"

	cubrick "cubrick"
)

func main() {
	cfg := cubrick.Defaults()
	cfg.Deployment.Transport.RequestFailureProb = 0
	db, err := cubrick.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The sharded fact table: ad impressions by day and campaign.
	factSchema := cubrick.Schema{
		Dimensions: []cubrick.Dimension{
			{Name: "ds", Max: 30, Buckets: 6},
			{Name: "campaign", Max: 50, Buckets: 10},
		},
		Metrics: []cubrick.Metric{{Name: "impressions"}},
	}
	if err := db.CreateTable("ad_events", factSchema); err != nil {
		log.Fatal(err)
	}

	// The replicated dimension table: campaign -> advertiser vertical.
	dimSchema := cubrick.Schema{
		Dimensions: []cubrick.Dimension{
			{Name: "campaign", Max: 50, Buckets: 10},
			{Name: "vertical", Max: 5, Buckets: 5}, // 0=retail 1=games ...
		},
	}
	if err := db.CreateReplicatedTable("campaigns", dimSchema); err != nil {
		log.Fatal(err)
	}

	// Load: every campaign gets impressions each day; verticals cycle.
	var fdims [][]uint32
	var fmets [][]float64
	for ds := uint32(0); ds < 30; ds++ {
		for c := uint32(0); c < 50; c++ {
			fdims = append(fdims, []uint32{ds, c})
			fmets = append(fmets, []float64{float64(100 + c)})
		}
	}
	if err := db.Load("ad_events", fdims, fmets); err != nil {
		log.Fatal(err)
	}
	var ddims [][]uint32
	var dmets [][]float64
	for c := uint32(0); c < 50; c++ {
		ddims = append(ddims, []uint32{c, c % 5})
		dmets = append(dmets, nil)
	}
	if err := db.LoadReplicated("campaigns", ddims, dmets); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d fact rows and a %d-row replicated dimension table\n", len(fdims), len(ddims))

	// The star join: group fact metrics by a dimension-table attribute.
	// Each fact partition joins against its host's local replica — no
	// data moves, and fan-out stays at the fact table's partition count.
	res, err := db.Query(context.Background(), `SELECT vertical, SUM(impressions) AS total
	                      FROM ad_events JOIN campaigns ON campaign
	                      WHERE ds < 7
	                      GROUP BY vertical ORDER BY total DESC`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nimpressions by advertiser vertical (first week):\n")
	for _, row := range res.Rows {
		fmt.Printf("  vertical %v: %v impressions\n", row[0], row[1])
	}
	fmt.Printf("\n(join fan-out: %d hosts — same as a single-table query on ad_events;\n", res.Fanout)
	fmt.Println(" the replicated table added zero network hops)")
}
