package netexec

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"cubrick/internal/brick"
	"cubrick/internal/cluster"
	"cubrick/internal/core"
	"cubrick/internal/cubrick"
	"cubrick/internal/engine"
	"cubrick/internal/metrics"
	"cubrick/internal/oracle"
	"cubrick/internal/partition"
	"cubrick/internal/randutil"
	"cubrick/internal/shardmgr"
	"cubrick/internal/workload"
)

// TestCrossPlaneParity is the wall between the two edges of the partition
// core: for random (schema, rows, tier mix, query) trials under every
// serving configuration — decoded cache off, or cold then warm —
// cubrick.Node.ExecutePartialCtx and POST /partial return
// byte-identical partials (once the group records, which MarshalBinary
// writes in map order, are sorted), and both finalize to exactly the
// answer internal/oracle computes over the same rows. Metric values are
// small integers, so sums are exact whatever order the rows fold in.
func TestCrossPlaneParity(t *testing.T) {
	const trials = 20
	reg := metrics.NewRegistry() // shared by every cell, to show below that no path went unvisited
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

			catalog := cubrick.NewCatalog(core.MonotonicMapper{MaxShards: 1000}, core.DefaultPartitionPolicy())
			if _, err := catalog.CreateTable("t", schema); err != nil {
				t.Fatal(err)
			}
			shard, part := catalog.ShardOf("t", 0), core.PartitionName("t", 0)
			node := cubrick.NewNode(&cluster.Host{Name: "h"}, "east", catalog, cubrick.NodeConfig{Config: cfg})
			if err := node.AddShard(shard, shardmgr.Primary); err != nil {
				t.Fatal(err)
			}
			nodeStore, _ := node.Parts().Store(part)
			build(t, nodeStore)

			worker := NewWorker(cfg)
			if err := worker.AddPartition(part, schema); err != nil {
				t.Fatal(err)
			}
			workerStore, _ := worker.Store(part)
			build(t, workerStore)
			srv := httptest.NewServer(worker.Handler())

			for qi, q := range queries {
				want := oracle.Answer(reference(t, q, ref))
				for run := 0; run < runs; run++ {
					np, err := node.ExecutePartialCtx(context.Background(), shard, part, q)
					if err != nil {
						t.Fatalf("%s query %d run %d: node: %v", name, qi, run, err)
					}
					nodeBlob, err := np.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					resp := postPartial(t, srv.URL, part, q, nil)
					workerBlob, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Fatalf("%s query %d run %d: worker: status %d, %v", name, qi, run, resp.StatusCode, err)
					}
					if !bytes.Equal(canonicalPartial(t, nodeBlob), canonicalPartial(t, workerBlob)) {
						t.Fatalf("%s query %d run %d (%+v): node and worker partials differ (%d vs %d bytes)",
							name, qi, run, q, len(nodeBlob), len(workerBlob))
					}
					got, err := engine.UnmarshalPartial(q, workerBlob)
					if err != nil {
						t.Fatal(err)
					}
					if err := oracle.Equal(want, oracle.Answer(got.Finalize())); err != nil {
						t.Fatalf("%s query %d run %d (%+v): answer differs from the oracle: %v", name, qi, run, q, err)
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

// canonicalPartial returns a wire partial with its group records sorted
// bytewise: the header (magic, scan counters, arities, group count) stays
// in place, so two blobs are equal afterwards exactly when they carry the
// same counters and the same accumulators for the same groups.
func canonicalPartial(t *testing.T, blob []byte) []byte {
	t.Helper()
	off := 4 // magic
	uvarint := func() uint64 {
		v, n := binary.Uvarint(blob[off:])
		if n <= 0 {
			t.Fatalf("corrupt partial at offset %d", off)
		}
		off += n
		return v
	}
	for i := 0; i < 4; i++ { // rows scanned, bricks visited, bricks pruned, decompressions
		uvarint()
	}
	keyLen, cells, groups := int(uvarint()), int(uvarint()), int(uvarint())
	out := append([]byte(nil), blob[:off]...)
	records := make([][]byte, groups)
	for g := range records {
		start := off
		off += 4 * keyLen
		for c := 0; c < cells; c++ {
			off += 8 // sum
			uvarint()
			off += 16 // min, max
			off += int(uvarint())
		}
		records[g] = blob[start:off]
	}
	if off != len(blob) {
		t.Fatalf("partial has %d trailing bytes", len(blob)-off)
	}
	sort.Slice(records, func(i, j int) bool { return bytes.Compare(records[i], records[j]) < 0 })
	return append(out, bytes.Join(records, nil)...)
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
		if err := st.InsertBatchRows(d1, m1); err != nil {
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
		if err := st.InsertBatchRows(d2, m2); err != nil {
			t.Fatal(err)
		}
	}
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
