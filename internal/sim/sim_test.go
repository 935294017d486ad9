package sim

import (
	"reflect"
	"testing"

	"cubrick/internal/cubrick"
)

func TestCollisionsFig4aShape(t *testing.T) {
	cfg := DefaultCollisionConfig()
	cfg.Tables = 2000
	cfg.Hosts = 200
	rep := Collisions(cfg)
	if rep.Tables != 2000 {
		t.Fatalf("tables = %d", rep.Tables)
	}
	// Same-table partition collisions are prevented by design (Fig 4a
	// reports exactly zero).
	if rep.TablesWithSamePartitionCollision != 0 {
		t.Fatalf("same-table collisions = %d, want 0", rep.TablesWithSamePartitionCollision)
	}
	// Shard collisions dominate partition collisions, both in low single
	// digit percentages (paper: ~7% and ~3%).
	fs, fc := rep.FracShardCollision(), rep.FracCrossPartition()
	if fs <= 0 || fs > 0.30 {
		t.Fatalf("shard collision rate = %v, want single-digit %%", fs)
	}
	if fc <= 0 || fc > 0.15 {
		t.Fatalf("cross-table partition collision rate = %v, want low single-digit %%", fc)
	}
	if fs <= fc {
		t.Fatalf("expected shard collisions (%v) > partition collisions (%v) as in Fig 4a", fs, fc)
	}
}

func TestPartitionsHistogramFig4bShape(t *testing.T) {
	hist := PartitionsHistogram(5000, 1)
	total := 0
	for _, n := range hist {
		total += n
	}
	if total != 5000 {
		t.Fatalf("histogram covers %d tables", total)
	}
	frac8 := float64(hist[8]) / 5000
	if frac8 < 0.75 {
		t.Fatalf("fraction at 8 partitions = %v, want vast majority", frac8)
	}
	keys := SortedKeys(hist)
	if keys[0] != 8 {
		t.Fatalf("minimum partitions = %d, want 8", keys[0])
	}
	if maxK := keys[len(keys)-1]; maxK < 16 || maxK > 128 {
		t.Fatalf("max partitions = %d, want tail near 64", maxK)
	}
	// Histogram decreasing: fewer tables at higher counts.
	prev := hist[keys[0]]
	for _, k := range keys[1:] {
		if hist[k] > prev {
			t.Fatalf("histogram not decreasing at %d: %d > %d", k, hist[k], prev)
		}
		prev = hist[k]
	}
}

func TestPropagationDelaysFig4cShape(t *testing.T) {
	dist := PropagationDelays(300, 1)
	if dist.Len() != 300 {
		t.Fatalf("recorded %d delays", dist.Len())
	}
	p50 := dist.Quantile(0.5)
	if p50 < 1 || p50 > 10 {
		t.Fatalf("median delay = %vs, want a few seconds", p50)
	}
	if dist.Quantile(1) > 30 {
		t.Fatalf("max delay = %vs, implausibly large", dist.Quantile(1))
	}
}

func TestFanoutExperimentFig5Shape(t *testing.T) {
	cfg := DefaultFanoutConfig()
	cfg.QueriesPerLevel = 30000
	series := FanoutExperiment(cfg)
	if len(series) != len(cfg.Levels) {
		t.Fatalf("series = %d", len(series))
	}
	// Medians stay roughly flat while the extreme tail grows with
	// fan-out; success never increases with fan-out.
	first, last := series[0], series[len(series)-1]
	if last.Latency.P50 > first.Latency.P50*3 {
		t.Fatalf("median blew up with fan-out: %v -> %v", first.Latency.P50, last.Latency.P50)
	}
	if last.Latency.P9999 <= first.Latency.P9999 {
		t.Fatalf("p9999 did not grow with fan-out: %v -> %v", first.Latency.P9999, last.Latency.P9999)
	}
	if last.SuccessRatio > first.SuccessRatio {
		t.Fatalf("success ratio grew with fan-out: %v -> %v", first.SuccessRatio, last.SuccessRatio)
	}
	// p999 should be monotone-ish: allow small noise but require overall
	// upward trend across the range.
	mid := series[len(series)/2]
	if !(first.Latency.P999 <= mid.Latency.P999*1.2 && mid.Latency.P999 <= last.Latency.P999*1.2) {
		t.Fatalf("tail trend violated: %v / %v / %v", first.Latency.P999, mid.Latency.P999, last.Latency.P999)
	}
}

func TestRunWeekProducesFig4Series(t *testing.T) {
	if testing.Short() {
		t.Skip("week simulation in -short mode")
	}
	cfg := DefaultWeekConfig()
	cfg.Days = 3
	cfg.Tables = 10
	cfg.RowsPerTable = 150
	cfg.QueriesPerHour = 20
	rep, err := RunWeek(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.MigrationsPerDay) != 3 || len(rep.RepairsPerDay) != 3 {
		t.Fatalf("series lengths: %d/%d", len(rep.MigrationsPerDay), len(rep.RepairsPerDay))
	}
	if rep.Queries == 0 {
		t.Fatal("no queries ran")
	}
	// Cross-region retries keep success high despite failures (§IV-D).
	if rep.QuerySuccessRatio < 0.97 {
		t.Fatalf("query success = %v, want ≥0.97 with retries", rep.QuerySuccessRatio)
	}
	// The week must exercise the control plane: some migrations happen
	// (failovers, drains or balancing).
	var totalMig float64
	for _, m := range rep.MigrationsPerDay {
		totalMig += m
	}
	if totalMig == 0 {
		t.Fatal("no shard migrations in simulated days")
	}
	// Hot/cold split exists (Fig 4e): both populations present.
	if rep.HotBricks == 0 || rep.ColdBricks == 0 {
		t.Fatalf("hot/cold split degenerate: hot=%d cold=%d", rep.HotBricks, rep.ColdBricks)
	}
	// Collision taxonomy on the live deployment: same-table always zero.
	if rep.Collisions.TablesWithSamePartitionCollision != 0 {
		t.Fatal("same-table collision in live deployment")
	}
}

// RunWeek on the third-generation (SSD-tiered) configuration: queries stay
// exact and successful while evicted bricks accrue SSD reads — the §IV-F3
// regime the paper's team was studying.
func TestRunWeekGen3(t *testing.T) {
	if testing.Short() {
		t.Skip("week simulation in -short mode")
	}
	cfg := DefaultWeekConfig()
	cfg.Days = 2
	cfg.Tables = 8
	cfg.RowsPerTable = 200
	cfg.QueriesPerHour = 20
	cfg.MetricGen = cubrick.Gen3
	cfg.MemoryBudgetBytes = 4096 // force eviction
	rep, err := RunWeek(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SSDReads == 0 {
		t.Fatal("gen3 week recorded no SSD reads despite tiny memory budget")
	}
	if rep.QuerySuccessRatio < 0.97 {
		t.Fatalf("gen3 success = %v", rep.QuerySuccessRatio)
	}
}

// One seed is one week: the balancer's choices, and so every series of
// the report, must not depend on Go's map order.
func TestRunWeekReplaysFromSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("week simulation in -short mode")
	}
	cfg := DefaultWeekConfig()
	cfg.Days = 2
	cfg.Tables = 8
	cfg.RowsPerTable = 100
	cfg.QueriesPerHour = 12
	var first *WeekReport
	for run := 0; run < 5; run++ {
		rep, err := RunWeek(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = rep
			continue
		}
		if !reflect.DeepEqual(rep, first) {
			t.Fatalf("run %d differs from run 0 under seed %d:\n%+v\nvs\n%+v", run, cfg.Seed, rep, first)
		}
	}
}
