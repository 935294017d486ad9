// Dashboard: the interactive-analytics workload the paper's introduction
// motivates, end to end — dictionary-encoded string dimensions, a star
// join against a replicated dimension table, approximate distinct counts,
// HAVING, and ordered top-N — all over the partially-sharded deployment.
//
// Run: go run ./examples/dashboard
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"
	"text/tabwriter"

	cubrick "cubrick"
	"cubrick/internal/randutil"
)

func main() {
	cfg := cubrick.Defaults()
	cfg.Deployment.Transport.RequestFailureProb = 0
	db, err := cubrick.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Fact table: page-view events by day, country and page.
	if err := db.CreateTable("pageviews", cubrick.Schema{
		Dimensions: []cubrick.Dimension{
			{Name: "ds", Max: 30, Buckets: 6},
			{Name: "country", Max: 64, Buckets: 8},
			{Name: "page", Max: 512, Buckets: 16},
			{Name: "user", Max: 1 << 16, Buckets: 64},
		},
		Metrics: []cubrick.Metric{{Name: "ms_on_page"}},
	}); err != nil {
		log.Fatal(err)
	}
	if err := db.EnableDictionary("pageviews", "country"); err != nil {
		log.Fatal(err)
	}

	// Replicated dimension table: page -> section of the site.
	if err := db.CreateReplicatedTable("pages", cubrick.Schema{
		Dimensions: []cubrick.Dimension{
			{Name: "page", Max: 512, Buckets: 16},
			{Name: "section", Max: 8, Buckets: 8},
		},
	}); err != nil {
		log.Fatal(err)
	}
	var pdims [][]uint32
	var pmets [][]float64
	for page := uint32(0); page < 512; page++ {
		pdims = append(pdims, []uint32{page, page % 8})
		pmets = append(pmets, nil)
	}
	if err := db.LoadReplicated("pages", pdims, pmets); err != nil {
		log.Fatal(err)
	}

	// Synthetic traffic: zipf-skewed pages and users, a handful of
	// countries.
	rnd := randutil.New(7)
	pageZipf := rnd.NewZipf(1.2, 512)
	userZipf := rnd.NewZipf(1.1, 1<<16)
	countries := []string{"US", "BR", "IN", "JP", "DE", "NG"}
	ids := make([]uint32, len(countries))
	for i, c := range countries {
		id, err := db.Encode("pageviews", "country", c)
		if err != nil {
			log.Fatal(err)
		}
		ids[i] = id
	}
	const rows = 20000
	dims := make([][]uint32, rows)
	mets := make([][]float64, rows)
	for i := 0; i < rows; i++ {
		dims[i] = []uint32{
			uint32(rnd.Intn(30)),
			ids[rnd.Intn(len(ids))],
			uint32(pageZipf.Next()),
			uint32(userZipf.Next()),
		}
		mets[i] = []float64{float64(500 + rnd.Intn(60000))}
	}
	if err := db.Load("pageviews", dims, mets); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d pageviews\n\n", rows)

	queries := []string{
		`SELECT COUNT(*) AS views, COUNT(DISTINCT user) AS uniques FROM pageviews`,
		`SELECT section, SUM(ms_on_page) AS engagement, COUNT(DISTINCT user) AS uniques
		 FROM pageviews JOIN pages ON page
		 GROUP BY section HAVING engagement > 1000000
		 ORDER BY engagement DESC LIMIT 5`,
		`SELECT ds, COUNT(*) AS views FROM pageviews
		 WHERE country = 'BR' AND ds < 7
		 GROUP BY ds ORDER BY ds`,
	}
	for _, q := range queries {
		res, err := db.Query(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(strings.Join(strings.Fields(q), " "))
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "  "+strings.Join(res.Columns, "\t"))
		for _, row := range res.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = fmt.Sprintf("%.0f", v)
			}
			fmt.Fprintln(w, "  "+strings.Join(cells, "\t"))
		}
		w.Flush()
		fmt.Printf("  (fan-out %d hosts, %s region, %v simulated)\n\n", res.Fanout, res.Region, res.Latency.Round(1e6))
	}
}
