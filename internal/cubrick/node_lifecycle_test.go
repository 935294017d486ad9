package cubrick

import (
	"context"
	"testing"

	"cubrick/internal/brick"
	"cubrick/internal/engine"
	"cubrick/internal/partition"
	"cubrick/internal/shardmgr"
)

// TestNodePartitionLifecycle: partitions that were loaded and queried
// leave nothing in the node's partition set once their shard is dropped,
// they are dropped one by one, or the node is reset — no entry, no store —
// and taking the shard again serves them over fresh stores.
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
			d := testDeploymentNode(t, DefaultNodeConfig())
			if _, err := d.CreateTable("t", smallSchema()); err != nil {
				t.Fatal(err)
			}
			want := loadRows(t, d, "t", 600)
			if res, err := d.Query(context.Background(), "east", "t", sumQuery(), 0); err != nil || res.Rows[0][0] != want {
				t.Fatalf("sum = %v, %v; want %v", res, err, want)
			}
			ragged := sumQuery()
			ragged.Filter = map[string][2]uint32{"ds": {3, 3}}
			if _, err := d.Query(context.Background(), "east", "t", ragged, 0); err != nil {
				t.Fatal(err)
			}

			count := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
			answer := func(n *Node, name string) error {
				var cb engine.Combiner
				_, _, err := n.Parts().Partial(t.Context(), []string{name}, count, partition.Opts{}, &cb)
				return err
			}
			served := 0
			for _, n := range d.Nodes() {
				shards := n.Shards()
				old := make(map[string]*brick.Store)
				for _, shard := range shards {
					for _, ref := range d.Catalog.PartitionsOf(shard) {
						st, ok := n.Parts().Store(ref.Name())
						if !ok {
							t.Fatalf("%s serves %s without a store", n.Host().Name, ref.Name())
						}
						old[ref.Name()] = st
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
						if _, ok := n.Parts().Store(ref.Name()); ok {
							t.Fatalf("store of %s survives %s", ref.Name(), tc.name)
						}
						if err := answer(n, ref.Name()); err == nil {
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
						fresh, ok := n.Parts().Store(ref.Name())
						if !ok || fresh == old[ref.Name()] {
							t.Fatalf("%s re-created over a stale store", ref.Name())
						}
						if err := answer(n, ref.Name()); err != nil {
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
