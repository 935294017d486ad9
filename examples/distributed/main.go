// Distributed: the scatter-gather data plane over a real network. Four
// worker processes (here: four HTTP servers on localhost ports) each hold
// one partition of a table; a coordinator fans the query out over HTTP,
// merges the binary partial results and finalizes — the paper's execution
// flow with partials crossing actual sockets.
//
// Run: go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"cubrick/internal/brick"
	"cubrick/internal/engine"
	"cubrick/internal/netexec"
	"cubrick/internal/partition"
)

func main() {
	schema := brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "ds", Max: 30, Buckets: 6},
			{Name: "app", Max: 20, Buckets: 4},
		},
		Metrics: []brick.Metric{{Name: "value"}},
	}

	// Start four workers on real localhost listeners.
	const workers = 4
	var targets []netexec.Target
	for i := 0; i < workers; i++ {
		w := netexec.NewWorker(partition.Config{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		srv := &http.Server{Handler: w.Handler()}
		go srv.Serve(ln)
		defer srv.Close()
		url := "http://" + ln.Addr().String()
		part := fmt.Sprintf("events#%d", i)
		cl := &netexec.Client{BaseURL: url}
		if err := cl.CreatePartition(context.Background(), part, schema); err != nil {
			log.Fatal(err)
		}
		targets = append(targets, netexec.Target{URL: url, Partition: part})
		fmt.Printf("worker %d: %s serving %s\n", i, url, part)
	}

	// Shard 4000 rows round-robin across the workers, over the wire.
	dims := make([][][]uint32, workers)
	mets := make([][][]float64, workers)
	for i := 0; i < 4000; i++ {
		w := i % workers
		dims[w] = append(dims[w], []uint32{uint32(i) % 30, uint32(i) % 20})
		mets[w] = append(mets[w], []float64{float64(i % 100)})
	}
	for i, t := range targets {
		cl := &netexec.Client{BaseURL: t.URL}
		if _, err := cl.Load(context.Background(), t.Partition, dims[i], mets[i]); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("loaded 4000 rows across 4 workers")

	// Scatter-gather over HTTP.
	q := &engine.Query{
		Aggregates: []engine.Aggregate{
			{Func: engine.Sum, Metric: "value", Alias: "total"},
			{Func: engine.Avg, Metric: "value", Alias: "mean"},
			{Func: engine.Count, Alias: "n"},
		},
		GroupBy: []string{"app"},
		Filter:  map[string][2]uint32{"ds": {0, 14}},
		OrderBy: "total", Desc: true, Limit: 5,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	res, err := (&netexec.Coordinator{}).Query(ctx, targets, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntop apps by total value (first half of month), merged from %d workers in %s:\n",
		workers, time.Since(start).Round(time.Millisecond))
	fmt.Printf("%v\n", res.Columns)
	for _, row := range res.Rows {
		fmt.Printf("%v\n", row)
	}
	fmt.Printf("(scanned %d rows across the cluster)\n", res.RowsScanned)
}
