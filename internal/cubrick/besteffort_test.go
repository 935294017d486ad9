package cubrick

import (
	"context"
	"errors"
	"testing"

	"cubrick/internal/cluster"
)

func TestBestEffortFullCoverageWhenHealthy(t *testing.T) {
	d := testDeployment(t)
	d.CreateTable("m", smallSchema())
	want := loadRows(t, d, "m", 400)
	res, err := d.QueryBestEffort(context.Background(), "east", "m", sumQuery(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage != 1 {
		t.Fatalf("coverage = %v, want 1", res.Coverage)
	}
	if res.Rows[0][0] != want {
		t.Fatalf("sum = %v, want %v", res.Rows[0][0], want)
	}
}

func TestBestEffortSkipsDeadPartitions(t *testing.T) {
	d := testDeployment(t)
	d.CreateTable("m", smallSchema())
	want := loadRows(t, d, "m", 400)

	// Kill partition 0's host in east.
	shard := d.Catalog.ShardOf("m", 0)
	a, _ := d.SM.Assignment(ServiceName("east"), shard)
	h, _ := d.Fleet.Host(a.Primary())
	h.SetState(cluster.Down)

	// Exact query fails; best-effort answers with partial coverage and an
	// undercount — the accuracy-for-availability trade (§II-C).
	if _, err := d.Query(context.Background(), "east", "m", sumQuery(), 0); !errors.Is(err, ErrRegionUnavailable) {
		t.Fatalf("exact query = %v, want ErrRegionUnavailable", err)
	}
	res, err := d.QueryBestEffort(context.Background(), "east", "m", sumQuery(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage != 0.75 {
		t.Fatalf("coverage = %v, want 0.75 (3 of 4 partitions)", res.Coverage)
	}
	if res.Rows[0][0] >= want {
		t.Fatalf("best-effort sum %v not below true sum %v", res.Rows[0][0], want)
	}
	if res.Rows[0][0] <= 0 {
		t.Fatal("best-effort returned nothing despite 3 live partitions")
	}
}

func TestBestEffortFailsWhenNothingAnswers(t *testing.T) {
	d := testDeployment(t)
	d.CreateTable("m", smallSchema())
	loadRows(t, d, "m", 100)
	for _, h := range d.Fleet.Region("east") {
		h.SetState(cluster.Down)
	}
	if _, err := d.QueryBestEffort(context.Background(), "east", "m", sumQuery(), 0); !errors.Is(err, ErrRegionUnavailable) {
		t.Fatalf("all-dead best effort = %v, want ErrRegionUnavailable", err)
	}
}
