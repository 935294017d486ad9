package cubrick

import (
	"testing"

	"cubrick/internal/engine"
	"cubrick/internal/rollup"
	"cubrick/internal/shardmgr"
)

// TestNodePartitionLifecycle: partitions that were loaded and queried
// (rollup-served and raw) leave nothing in the node's partition set once
// their shard is dropped, they are dropped one by one, or the node is
// reset — no entry, no rollup table — and taking the shard again serves
// them over fresh rollup tables.
func TestNodePartitionLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name string
		drop func(t *testing.T, n *Node, shard int64, refs []PartitionRef)
		add  func(n *Node, shard int64, refs []PartitionRef) error
	}{
		{
			name: "DropShard",
			drop: func(t *testing.T, n *Node, shard int64, _ []PartitionRef) {
				if err := n.DropShard(shard); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "DropPartition",
			drop: func(_ *testing.T, n *Node, shard int64, refs []PartitionRef) {
				for _, ref := range refs {
					n.DropPartition(shard, ref.Name())
				}
			},
			add: func(n *Node, shard int64, refs []PartitionRef) error {
				for _, ref := range refs {
					if err := n.EnsurePartition(shard, ref); err != nil {
						return err
					}
				}
				return nil
			},
		},
		{
			name: "Reset",
			drop: func(_ *testing.T, n *Node, _ int64, _ []PartitionRef) { n.Reset() },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultNodeConfig()
			cfg.RollupTimeDim, cfg.RollupBucket = "ds", 5
			d := testDeploymentNode(t, cfg)
			if _, err := d.CreateTable("t", smallSchema()); err != nil {
				t.Fatal(err)
			}
			want := loadRows(t, d, "t", 600)
			if res, err := d.Query("east", "t", sumQuery(), 0); err != nil || res.Rows[0][0] != want {
				t.Fatalf("rollup-served sum = %v, %v; want %v", res, err, want)
			}
			ragged := sumQuery()
			ragged.Filter = map[string][2]uint32{"ds": {3, 3}}
			if _, err := d.Query("east", "t", ragged, 0); err != nil {
				t.Fatal(err)
			}

			count := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
			served := 0
			for _, n := range d.Nodes() {
				shards := n.Shards()
				old := make(map[string]*rollup.Table)
				for _, shard := range shards {
					for _, ref := range d.Catalog.PartitionsOf(shard) {
						if old[ref.Name()] = n.Parts().RollupTable(ref.Name()); old[ref.Name()] == nil {
							t.Fatalf("%s serves %s without a rollup table", n.Host().Name, ref.Name())
						}
						served++
					}
				}
				for _, shard := range shards {
					tc.drop(t, n, shard, d.Catalog.PartitionsOf(shard))
				}
				if left := n.Parts().Len(); left != 0 {
					t.Fatalf("%s: %d set entries survive %s", n.Host().Name, left, tc.name)
				}
				for _, shard := range shards {
					for _, ref := range d.Catalog.PartitionsOf(shard) {
						if n.Parts().RollupTable(ref.Name()) != nil {
							t.Fatalf("rollup table of %s survives %s", ref.Name(), tc.name)
						}
						if _, err := n.ExecutePartial(shard, ref.Name(), count); err == nil {
							t.Fatalf("%s still answers after %s", ref.Name(), tc.name)
						}
					}
				}

				for _, shard := range shards {
					refs := d.Catalog.PartitionsOf(shard)
					if tc.add != nil {
						if err := tc.add(n, shard, refs); err != nil {
							t.Fatal(err)
						}
					} else if err := n.AddShard(shard, shardmgr.Primary); err != nil {
						t.Fatal(err)
					}
					for _, ref := range refs {
						fresh := n.Parts().RollupTable(ref.Name())
						if fresh == nil || fresh == old[ref.Name()] || fresh.CoveredEpoch() != 0 {
							t.Fatalf("%s re-created over a stale rollup table", ref.Name())
						}
						if _, err := n.ExecutePartial(shard, ref.Name(), count); err != nil {
							t.Fatalf("%s does not answer once re-created: %v", ref.Name(), err)
						}
					}
				}
			}
			if served == 0 {
				t.Fatal("no node served a partition; the test checks nothing")
			}
		})
	}
}
