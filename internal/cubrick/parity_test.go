package cubrick

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"cubrick/internal/brick"
	"cubrick/internal/core"
	"cubrick/internal/engine"
	"cubrick/internal/metrics"
	"cubrick/internal/netexec"
	"cubrick/internal/oracle"
	"cubrick/internal/partition"
	"cubrick/internal/randutil"
	"cubrick/internal/workload"
)

// TestCrossPlaneParity is the wall between the two planes: for random
// (schema, rows, tier mix, query) trials under every serving configuration
// — decoded cache off, or cold then warm — Deployment.Query over the
// in-memory transport and netexec.Cluster.Query over httptest workers both
// finalize to exactly the answer internal/oracle computes over the same
// rows. Both planes run one netexec.Coordinator and one netexec.Worker, so
// the wall checks whole queries, not partials. Metric values are small
// integers, so sums are exact whatever order the rows fold in.
func TestCrossPlaneParity(t *testing.T) {
	const trials = 20
	reg := metrics.NewRegistry() // shared by every cell, to show below that no path went unvisited
	ctx := context.Background()
	part := core.PartitionName("t", 0)
	for trial := 0; trial < trials; trial++ {
		rnd := randutil.New(int64(1000 + trial))
		schema := parityShema(rnd)
		build := parityBuild(schema, rnd)
		ref, _ := brick.NewStore(schema)
		build(t, ref)
		queries := parityQueries(t, schema, rnd)
		for cell := 0; cell < 2; cell++ {
			cfg := partition.Config{Metrics: reg}
			runs := 1
			if cell == 1 {
				cfg.DecodedCacheBytes = 4 << 20
				runs = 2 // cold, warm
			}
			name := fmt.Sprintf("trial=%d caches=%v", trial, runs > 1)

			// The in-process plane: one host holding the table's one partition.
			dcfg := DefaultDeploymentConfig()
			dcfg.Regions, dcfg.RacksPerRegion, dcfg.HostsPerRack = []string{"east"}, 1, 1
			dcfg.Node.Config = cfg
			dcfg.Policy.InitialPartitions = 1
			dcfg.Transport.RequestFailureProb = 0
			d, err := Open(dcfg, epoch)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.CreateTable("t", schema); err != nil {
				t.Fatal(err)
			}
			nodeStore, ok := d.Nodes()[0].Parts().Store(part)
			if !ok {
				t.Fatalf("%s: the deployment's one host does not serve %s", name, part)
			}
			build(t, nodeStore)

			// The networked plane: one worker behind a real socket.
			worker := netexec.NewWorker(cfg)
			srv := httptest.NewServer(worker.Handler())
			cl, err := netexec.NewCluster([]string{srv.URL}, 1000, srv.Client())
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.CreateTable(ctx, "t", schema, 1); err != nil {
				t.Fatal(err)
			}
			workerStore, err := worker.Store(part)
			if err != nil {
				t.Fatal(err)
			}
			build(t, workerStore)

			for qi, q := range queries {
				want, err := oracle.Run(q, ref)
				if err != nil {
					t.Fatal(err)
				}
				want = oracle.Answer(want)
				for run := 0; run < runs; run++ {
					res, err := d.Query(context.Background(), "east", "t", q, 0)
					if err != nil {
						t.Fatalf("%s query %d run %d: in-process: %v", name, qi, run, err)
					}
					if err := oracle.Equal(want, oracle.Answer(res.Result)); err != nil {
						t.Fatalf("%s query %d run %d (%+v): in-process answer differs from the oracle: %v", name, qi, run, q, err)
					}
					got, err := cl.Query(ctx, "t", q)
					if err != nil {
						t.Fatalf("%s query %d run %d: networked: %v", name, qi, run, err)
					}
					if err := oracle.Equal(want, oracle.Answer(got)); err != nil {
						t.Fatalf("%s query %d run %d (%+v): networked answer differs from the oracle: %v", name, qi, run, q, err)
					}
				}
			}
			srv.Close()
		}
	}
	if reg.CounterValues()["cache.decoded.hit"] == 0 {
		t.Error("no trial moved cache.decoded.hit: the wall never read through a warm decoded-column cache")
	}
}

// parityShema draws a 2–4 dimension schema whose first dimension, ds, is
// the time dimension dashboard windows slide over.
func parityShema(rnd *randutil.Source) brick.Schema {
	schema := brick.Schema{
		Dimensions: []brick.Dimension{{Name: "ds", Max: uint32(4 * (4 + rnd.Intn(8))), Buckets: 4}},
		Metrics:    []brick.Metric{{Name: "value"}, {Name: "samples"}},
	}
	for i := 0; i < 1+rnd.Intn(3); i++ {
		buckets := uint32(1 + rnd.Intn(4))
		schema.Dimensions = append(schema.Dimensions, brick.Dimension{
			Name: fmt.Sprintf("d%d", i), Max: buckets * uint32(2+rnd.Intn(12)), Buckets: buckets,
		})
	}
	return schema
}

// parityBuild returns a function that puts a store into the trial's state:
// a first batch, then — two trials in three — a pass that encodes (or
// encodes and evicts) every brick, then a second batch that reheats the
// bricks it touches. The same function builds the oracle's store and both
// planes' stores, so all three hold the same rows in the same tiers.
func parityBuild(schema brick.Schema, rnd *randutil.Source) func(*testing.T, *brick.Store) {
	batch := func(n int) ([][]uint32, [][]float64) {
		dims, mets := make([][]uint32, n), make([][]float64, n)
		for i := range dims {
			dims[i] = make([]uint32, len(schema.Dimensions))
			for d, dim := range schema.Dimensions {
				dims[i][d] = uint32(rnd.Intn(int(dim.Max)))
			}
			mets[i] = []float64{float64(rnd.Intn(1000)), float64(1 + rnd.Intn(5))}
		}
		return dims, mets
	}
	d1, m1 := batch(200 + rnd.Intn(800))
	d2, m2 := batch(50 + rnd.Intn(200))
	tier := rnd.Intn(3)
	return func(t *testing.T, st *brick.Store) {
		t.Helper()
		if err := insertRows(st, d1, m1); err != nil {
			t.Fatal(err)
		}
		if tier > 0 {
			st.DecayHotness(0)
			cfg := brick.CompactionConfig{EncodeBelow: 1}
			if tier == 2 {
				cfg.EvictBelow = 1
			}
			if _, err := st.CompactOnce(cfg); err != nil {
				t.Fatal(err)
			}
		}
		if err := insertRows(st, d2, m2); err != nil {
			t.Fatal(err)
		}
	}
}

// insertRows inserts a row-major batch (dims[r][d], mets[r][m]) through
// InsertBatch, transposing it into the store's columns first.
func insertRows(s *brick.Store, dims [][]uint32, mets [][]float64) error {
	dimCols := make([][]uint32, len(s.Schema().Dimensions))
	for d := range dimCols {
		dimCols[d] = make([]uint32, len(dims))
		for r := range dims {
			dimCols[d][r] = dims[r][d]
		}
	}
	metCols := make([][]float64, len(s.Schema().Metrics))
	for m := range metCols {
		metCols[m] = make([]float64, len(mets))
		for r := range mets {
			metCols[m][r] = mets[r][m]
		}
	}
	return s.InsertBatch(dimCols, metCols)
}

// parityQueries draws the trial's query shapes: random ones, and the
// dashboard's trailing time windows.
func parityQueries(t *testing.T, schema brick.Schema, rnd *randutil.Source) []*engine.Query {
	t.Helper()
	var out []*engine.Query
	for _, cfg := range []workload.ReplayConfig{
		{Shapes: 2},
		{Shapes: 2, TimeWindow: 8, TimeAlign: 4, FilterProb: -1},
	} {
		r, err := workload.NewQueryReplay(schema, cfg, rnd)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r.Shapes()...)
	}
	return out
}
