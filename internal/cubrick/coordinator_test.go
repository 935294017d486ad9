package cubrick

import (
	"context"
	"testing"

	"cubrick/internal/core"
)

// TestRegionCoordinatorIsLongLived: a region's queries all run through the
// one netexec.Coordinator Open built for it, so the ingest epochs it learns
// from /partial replies outlive each query, and stay in their region.
func TestRegionCoordinatorIsLongLived(t *testing.T) {
	d := testDeployment(t)
	if _, err := d.CreateTable("t", smallSchema()); err != nil {
		t.Fatal(err)
	}
	loadRows(t, d, "t", 400)
	part := core.PartitionName("t", 0)
	// epoch reads region's copy of part from the node that serves it.
	epoch := func(region string) uint64 {
		t.Helper()
		a, err := d.SM.Assignment(ServiceName(region), d.Catalog.ShardOf("t", 0))
		if err != nil {
			t.Fatal(err)
		}
		n, err := d.Node(a.Primary())
		if err != nil {
			t.Fatal(err)
		}
		st, ok := n.Parts().Store(part)
		if !ok {
			t.Fatalf("%s serves no %s", a.Primary(), part)
		}
		return st.Epoch()
	}
	east, west := d.coords["east"], d.coords["west"]
	if east == nil || west == nil || east == west {
		t.Fatalf("coordinators east %p, west %p: want one of its own per region", east, west)
	}

	var prev uint64
	for i := 0; i < 2; i++ {
		if i > 0 {
			loadRows(t, d, "t", 40)
			if epoch("east") == prev {
				t.Fatalf("a load left %s at epoch %d", part, prev)
			}
		}
		prev = epoch("east")
		if _, err := d.Query(context.Background(), "east", "t", sumQuery(), 0); err != nil {
			t.Fatal(err)
		}
		if d.coords["east"] != east {
			t.Fatalf("query %d: east's coordinator was replaced", i)
		}
		if got, ok := east.KnownEpoch(part); !ok || got != epoch("east") {
			t.Fatalf("query %d: east knows epoch %d (%v) of %s, want the east node's %d", i, got, ok, part, epoch("east"))
		}
		if got, ok := west.KnownEpoch(part); ok {
			t.Fatalf("query %d: west learned epoch %d of %s from an east query", i, got, part)
		}
	}

	if _, err := d.Query(context.Background(), "west", "t", sumQuery(), 0); err != nil {
		t.Fatal(err)
	}
	if got, ok := west.KnownEpoch(part); !ok || got != epoch("west") {
		t.Fatalf("west knows epoch %d (%v) of %s, want the west node's %d", got, ok, part, epoch("west"))
	}
}
