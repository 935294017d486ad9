package sim

import (
	"context"
	"time"

	"cubrick/internal/brick"
	"cubrick/internal/cluster"
	"cubrick/internal/core"
	"cubrick/internal/cubrick"
	"cubrick/internal/engine"
	"cubrick/internal/metrics"
	"cubrick/internal/proxy"
	"cubrick/internal/randutil"
	"cubrick/internal/shardmgr"
	"cubrick/internal/workload"
)

// WeekConfig parameterizes the full deployment simulation behind the
// per-day panels of Fig 4 (d: shard migrations, f: hosts repaired) and the
// hot/cold split of Fig 4e.
type WeekConfig struct {
	Days int
	// Deployment shape.
	Regions        []string
	RacksPerRegion int
	HostsPerRack   int
	// Tables is how many tenant tables to create.
	Tables int
	// RowsPerTable is the data volume per table (kept small; the week is
	// about control-plane dynamics, not scan throughput).
	RowsPerTable int
	// QueriesPerHour drives the query workload through the proxy.
	QueriesPerHour int
	// Failures parameterizes transient/permanent host failures.
	Failures cluster.FailureConfig
	// BalanceEveryHours is the load-balancer cadence.
	BalanceEveryHours int
	// DrainsPerWeek is how many planned host drains automation requests.
	DrainsPerWeek int
	// MetricGen selects the nodes' storage/metric generation (§IV-F);
	// Gen3 runs the week on the SSD-tiered configuration.
	MetricGen cubrick.MetricGeneration
	// MemoryBudgetBytes overrides the per-node memory budget (0 keeps the
	// default).
	MemoryBudgetBytes int64
	Seed              int64
}

// DefaultWeekConfig returns a week-long simulation sized to run in a few
// seconds.
func DefaultWeekConfig() WeekConfig {
	return WeekConfig{
		Days:              7,
		Regions:           []string{"east", "west", "central"},
		RacksPerRegion:    2,
		HostsPerRack:      6,
		Tables:            24,
		RowsPerTable:      400,
		QueriesPerHour:    60,
		Failures:          weekFailureConfig(),
		BalanceEveryHours: 6,
		DrainsPerWeek:     4,
		Seed:              1,
	}
}

func weekFailureConfig() cluster.FailureConfig {
	cfg := cluster.ConfigForUnavailability(2e-3, 5*time.Minute)
	cfg.PermanentMTBF = 60 * 24 * time.Hour // ~1 permanent failure per host per 60 days
	cfg.RepairTime = 24 * time.Hour
	return cfg
}

// WeekReport aggregates the week's observations.
type WeekReport struct {
	// MigrationsPerDay is Fig 4d: completed shard migrations (live +
	// failover) per simulated day.
	MigrationsPerDay []float64
	// RepairsPerDay is Fig 4f: hosts sent to the repair pipeline per day.
	RepairsPerDay []float64
	// HotBricks and ColdBricks split the final brick population by
	// hotness (Fig 4e's red/blue populations).
	HotBricks, ColdBricks int
	// HotnessQuantiles summarizes the final hotness distribution.
	HotnessP50, HotnessP99 float64
	// Queries and QuerySuccessRatio summarize the query workload; the
	// proxy's cross-region retries keep success high despite failures.
	Queries            int64
	QuerySuccessRatio  float64
	RetriedQueries     int64
	LiveMigrations     int64
	FailoverMigrations int64
	// Collisions is the Fig 4a report measured on the live deployment.
	Collisions core.CollisionReport
	// SSDReads counts scans over evicted bricks (non-zero only under
	// Gen3, §IV-F3 — the IOPS signal).
	SSDReads int64
}

// RunWeek simulates cfg.Days of production: failures and repairs, SM
// sweeps and heartbeats, periodic metric collection and load balancing,
// planned drains, zipf query traffic through the proxy, and nightly
// hotness decay.
func RunWeek(cfg WeekConfig) (*WeekReport, error) {
	epoch := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	dcfg := cubrick.DefaultDeploymentConfig()
	dcfg.Regions = cfg.Regions
	dcfg.RacksPerRegion = cfg.RacksPerRegion
	dcfg.HostsPerRack = cfg.HostsPerRack
	dcfg.Seed = cfg.Seed
	dcfg.Policy.InitialPartitions = 4
	dcfg.Transport.RequestFailureProb = 1e-4
	dcfg.Node.MetricGen = cfg.MetricGen
	if cfg.MemoryBudgetBytes > 0 {
		dcfg.Node.MemoryBudgetBytes = cfg.MemoryBudgetBytes
	}
	d, err := cubrick.Open(dcfg, epoch)
	if err != nil {
		return nil, err
	}
	rnd := randutil.New(cfg.Seed + 1)

	// Create and load the tenant tables.
	schema := workload.StandardSchema()
	gen := workload.NewRowGenerator(schema, rnd.Fork())
	tables := make([]string, cfg.Tables)
	for i := range tables {
		tables[i] = "tenant_" + itoa(i)
		if _, err := d.CreateTable(tables[i], schema); err != nil {
			return nil, err
		}
		if err := d.LoadGenerated(tables[i], cfg.RowsPerTable, gen); err != nil {
			return nil, err
		}
	}

	// Observability: migrations per day, repairs per day.
	migrations := metrics.NewTimeSeries(epoch, 24*time.Hour)
	report := &WeekReport{}
	d.SM.OnMigration(func(ev shardmgr.MigrationEvent) {
		migrations.Add(ev.At, 1)
		if ev.Kind == shardmgr.Failover {
			report.FailoverMigrations++
		} else {
			report.LiveMigrations++
		}
	})
	repairs := metrics.NewTimeSeries(epoch, 24*time.Hour)

	// Failure injection across the whole fleet.
	inj := cluster.NewInjector(d.Clock, d.Fleet, cfg.Failures, rnd.Fork())
	inj.Subscribe(cluster.ObserverFunc(func(h *cluster.Host, s cluster.State, at time.Time) {
		if s == cluster.Repairing {
			repairs.Add(at, 1)
		}
	}))
	inj.Start()

	// Query traffic through the proxy.
	pxy := proxy.New(d, proxy.Config{}, rnd.Fork())
	mix := rnd.Fork().NewZipf(1.1, uint64(len(tables)))
	qrnd := rnd.Fork()
	queryOnce := func() {
		table := tables[mix.Next()]
		q := &engine.Query{
			Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value", Alias: "total"}},
			Filter:     map[string][2]uint32{"ds": {0, uint32(qrnd.Intn(364))}},
		}
		pxy.Query(context.Background(), table, q)
	}

	// Hourly control loop: heartbeat sweeps, rejoins, metrics, balancing.
	hour := 0
	drainsLeft := cfg.DrainsPerWeek
	hourly := func() {
		hour++
		d.SM.Sweep()
		// Repaired/recovered hosts whose sessions expired rejoin empty.
		for _, n := range d.Nodes() {
			ag, err := d.Agent(n.Host().Name)
			if err != nil {
				continue
			}
			if n.Host().Available() && ag.Expired() {
				n.Reset()
				_ = ag.Rejoin()
			}
		}
		if cfg.BalanceEveryHours > 0 && hour%cfg.BalanceEveryHours == 0 {
			for _, region := range cfg.Regions {
				svc := cubrick.ServiceName(region)
				_ = d.SM.CollectMetrics(svc)
				_, _ = d.SM.BalanceOnce(svc)
			}
		}
		// Planned drains (data-center automation, §IV-G), spread over the
		// week at local-noon hours.
		if drainsLeft > 0 && hour%((cfg.Days*24)/max(1, cfg.DrainsPerWeek)) == 12%max(1, (cfg.Days*24)/max(1, cfg.DrainsPerWeek)) {
			region := cfg.Regions[rnd.Intn(len(cfg.Regions))]
			hosts := d.Fleet.Region(region)
			victim := hosts[rnd.Intn(len(hosts))]
			if victim.State() == cluster.Up {
				if _, err := d.SM.DrainServer(cubrick.ServiceName(region), victim.Name); err == nil {
					drainsLeft--
					// Automation returns the host to service afterwards.
					victim.SetState(cluster.Up)
				}
			}
		}
		// Nightly hotness decay.
		if hour%24 == 0 {
			for _, n := range d.Nodes() {
				n.DecayHotness()
			}
		}
	}

	// Drive the week: per simulated hour, advance the clock in query-size
	// steps so injected failures interleave with traffic.
	totalHours := cfg.Days * 24
	for h := 0; h < totalHours; h++ {
		for q := 0; q < cfg.QueriesPerHour; q++ {
			d.Clock.Advance(time.Hour / time.Duration(max(1, cfg.QueriesPerHour)))
			queryOnce()
		}
		hourly()
	}

	// Final accounting.
	_, migVals := migrations.Buckets()
	report.MigrationsPerDay = padDays(migVals, cfg.Days)
	_, repVals := repairs.Buckets()
	report.RepairsPerDay = padDays(repVals, cfg.Days)

	var heats []brick.BrickHeat
	for _, n := range d.Nodes() {
		heats = append(heats, n.HeatSnapshot()...)
	}
	var dist metrics.Distribution
	for _, h := range heats {
		dist.Add(h.Hotness)
		if h.Hotness >= 1 {
			report.HotBricks++
		} else {
			report.ColdBricks++
		}
	}
	report.HotnessP50 = dist.Quantile(0.5)
	report.HotnessP99 = dist.Quantile(0.99)

	for _, n := range d.Nodes() {
		report.SSDReads += n.SSDReads()
	}
	report.Queries = pxy.Queries.Value()
	if report.Queries > 0 {
		report.QuerySuccessRatio = 1 - float64(pxy.Failures.Value())/float64(report.Queries)
	}
	report.RetriedQueries = pxy.Retries.Value()
	report.Collisions = d.CollisionReport(cfg.Regions[0])
	return report, nil
}

func padDays(vals []float64, days int) []float64 {
	out := make([]float64, days)
	copy(out, vals)
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
