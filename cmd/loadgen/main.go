// Command loadgen drives sustained query traffic against an in-process
// deployment and reports throughput, latency percentiles and retry/failure
// counts — the operational view a Cubrick oncall watches. Failures are
// injected while the load runs, so the report shows the proxy's
// cross-region retries absorbing them.
//
//	loadgen -tables 12 -queries 5000 -kill 3
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"cubrick/internal/cluster"
	"cubrick/internal/cubrick"
	"cubrick/internal/engine"
	"cubrick/internal/proxy"
	"cubrick/internal/randutil"
	"cubrick/internal/workload"
)

func main() {
	tables := flag.Int("tables", 12, "tenant tables to create")
	rowsPer := flag.Int("rows", 400, "rows per table")
	queries := flag.Int("queries", 5000, "queries to run")
	kills := flag.Int("kill", 3, "hosts to kill mid-run")
	seed := flag.Int64("seed", 1, "deterministic seed")
	flag.Parse()

	cfg := cubrick.DefaultDeploymentConfig()
	cfg.RacksPerRegion = 3
	cfg.HostsPerRack = 4
	cfg.Policy.InitialPartitions = 4
	cfg.Seed = *seed
	d, err := cubrick.Open(cfg, time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		os.Exit(1)
	}
	rnd := randutil.New(*seed + 1)
	schema := workload.StandardSchema()
	gen := workload.NewRowGenerator(schema, rnd.Fork())
	names := make([]string, *tables)
	for i := range names {
		names[i] = fmt.Sprintf("tenant_%02d", i)
		if _, err := d.CreateTable(names[i], schema); err != nil {
			fmt.Fprintln(os.Stderr, "create:", err)
			os.Exit(1)
		}
		if err := d.LoadGenerated(names[i], *rowsPer, gen); err != nil {
			fmt.Fprintln(os.Stderr, "load:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("loaded %d tables × %d rows over %d hosts/region\n", *tables, *rowsPer, len(d.Fleet.Region("east")))

	pxy := proxy.New(d, proxy.Config{}, rnd.Fork())
	mix := rnd.Fork().NewZipf(1.1, uint64(len(names)))
	qrnd := rnd.Fork()
	killAt := 0
	if *kills > 0 {
		killAt = *queries / (*kills + 1)
	}
	killed := 0
	start := time.Now()
	for i := 0; i < *queries; i++ {
		if killAt > 0 && killed < *kills && i > 0 && i%killAt == 0 {
			// Kill in the proxy's preferred region so retries are visible.
			hosts := d.Fleet.Region(cfg.Regions[0])
			victim := hosts[qrnd.Intn(len(hosts))]
			if victim.State() == cluster.Up {
				victim.SetState(cluster.Down)
				killed++
				fmt.Printf("  [t+%s] killed %s (query %d)\n", time.Since(start).Round(time.Millisecond), victim.Name, i)
			}
		}
		// Periodic control-plane work, as the simulator's hourly loop does.
		if i%500 == 0 {
			d.Clock.Advance(30 * time.Second)
			d.SM.Sweep()
		}
		table := names[mix.Next()]
		q := &engine.Query{
			Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value", Alias: "total"}},
			Filter:     map[string][2]uint32{"ds": {0, uint32(qrnd.Intn(364))}},
		}
		pxy.Query(context.Background(), table, q)
	}
	elapsed := time.Since(start)

	snap := pxy.Latency.Snapshot()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "\nqueries\t%d in %s (%.0f qps wall)\n", pxy.Queries.Value(), elapsed.Round(time.Millisecond), float64(*queries)/elapsed.Seconds())
	fmt.Fprintf(w, "success\t%.3f%%\n", 100*(1-float64(pxy.Failures.Value())/float64(pxy.Queries.Value())))
	fmt.Fprintf(w, "cross-region retries\t%d\n", pxy.Retries.Value())
	fmt.Fprintf(w, "simulated latency\tp50=%.1fms p90=%.1fms p99=%.1fms p999=%.1fms max=%.1fms\n",
		snap.P50*1000, snap.P90*1000, snap.P99*1000, snap.P999*1000, snap.Max*1000)
	w.Flush()
}
