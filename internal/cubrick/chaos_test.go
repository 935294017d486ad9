package cubrick

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"cubrick/internal/cluster"
	"cubrick/internal/engine"
	"cubrick/internal/netexec"
	"cubrick/internal/randutil"
)

// TestChaosSoak runs a deterministic chaos schedule — transient host
// failures, heartbeat expiry, failovers, rejoins, drains and balancer runs
// — while querying continuously through every region. The invariant is
// the paper's consistency stance (§II-C): a query either fails (and would
// be retried elsewhere) or returns the exact answer; partial or wrong
// results are never served.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak in -short mode")
	}
	cfg := DefaultDeploymentConfig()
	cfg.RacksPerRegion = 3
	cfg.HostsPerRack = 4
	cfg.Policy.InitialPartitions = 4
	cfg.Transport.RequestFailureProb = 0
	d, err := Open(cfg, epoch)
	if err != nil {
		t.Fatal(err)
	}
	d.CreateTable("soak", smallSchema())
	want := loadRows(t, d, "soak", 500)

	rnd := randutil.New(99)
	checkAll := func(phase string) (okRegions int) {
		for _, region := range d.Config.Regions {
			res, err := d.Query(context.Background(), region, "soak", sumQuery(), 0)
			if err != nil {
				continue // unavailability is allowed; wrong answers are not
			}
			if res.Rows[0][0] != want {
				t.Fatalf("%s: region %s returned %v, want %v — WRONG RESULT", phase, region, res.Rows[0][0], want)
			}
			okRegions++
		}
		return okRegions
	}

	sweep := func(rounds int) {
		for i := 0; i < rounds; i++ {
			d.Clock.Advance(10 * time.Second)
			d.SM.Sweep()
			for _, n := range d.Nodes() {
				ag, _ := d.Agent(n.Host().Name)
				if n.Host().Available() && ag != nil && ag.Expired() {
					n.Reset()
					_ = ag.Rejoin()
					_ = d.ReplayReplicated(n.Host().Name)
				}
			}
		}
	}

	if got := checkAll("baseline"); got != len(d.Config.Regions) {
		t.Fatalf("baseline: only %d regions answered", got)
	}

	downHosts := make(map[string]*cluster.Host)
	for round := 0; round < 30; round++ {
		// Randomly kill a host, keeping at most two down at once so each
		// shard always has a live replica somewhere (three regions): the
		// no-data-loss precondition of the paper's fault-tolerance model.
		if len(downHosts) < 2 {
			hosts := d.Fleet.Hosts()
			victim := hosts[rnd.Intn(len(hosts))]
			if victim.State() == cluster.Up {
				victim.SetState(cluster.Down)
				downHosts[victim.Name] = victim
			}
		} else {
			for name, h := range downHosts {
				h.SetState(cluster.Up)
				delete(downHosts, name)
				break
			}
		}
		// ...let failure detection and failover run...
		sweep(6)
		// ...occasionally drain or balance...
		switch round % 5 {
		case 2:
			region := d.Config.Regions[rnd.Intn(len(d.Config.Regions))]
			svc := ServiceName(region)
			regionHosts := d.Fleet.Region(region)
			h := regionHosts[rnd.Intn(len(regionHosts))]
			if h.State() == cluster.Up {
				_, _ = d.SM.DrainServer(svc, h.Name)
				h.SetState(cluster.Up) // automation returns it
			}
		case 4:
			for _, region := range d.Config.Regions {
				svc := ServiceName(region)
				_ = d.SM.CollectMetrics(svc)
				_, _ = d.SM.BalanceOnce(svc)
			}
		}
		d.Clock.Advance(cfg.PropagationWait + time.Second) // flush delayed drops
		checkAll("chaos")
	}

	// Heal everything and verify full recovery.
	for _, h := range downHosts {
		h.SetState(cluster.Up)
	}
	sweep(12)
	d.Clock.Advance(time.Minute)
	if got := checkAll("healed"); got != len(d.Config.Regions) {
		t.Fatalf("after healing only %d/%d regions answer correctly", got, len(d.Config.Regions))
	}
}

// TestSeedReplaysFaultStream: each call draws its outcome on the wire from
// the seed, the query's key and the host, not from a shared stream, so two
// deployments opened with one seed answer one query stream identically —
// the same error, Latency, Fanout, Coverage and Rows for every query —
// although each query's calls run on concurrent goroutines: a faulted
// query names the first host, in sorted order, whose call draws a fault,
// not the one whose fault arrived first. The stream pairs exact and
// best-effort queries under a 10% request failure rate with one east host
// down.
func TestSeedReplaysFaultStream(t *testing.T) {
	type answer struct {
		err      string
		latency  time.Duration
		fanout   int
		coverage float64
		rows     [][]float64
	}
	open := func() *Deployment {
		cfg := DefaultDeploymentConfig()
		cfg.Policy.InitialPartitions = 4
		cfg.Transport.RequestFailureProb = 0.1
		d, err := Open(cfg, epoch)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.CreateTable("t", smallSchema()); err != nil {
			t.Fatal(err)
		}
		loadRows(t, d, "t", 400)
		a, err := d.SM.Assignment(ServiceName("east"), d.Catalog.ShardOf("t", 0))
		if err != nil {
			t.Fatal(err)
		}
		h, _ := d.Fleet.Host(a.Primary())
		h.SetState(cluster.Down)
		return d
	}
	ask := func(query func(ctx context.Context, region, table string, q *engine.Query, coordinatorPart int) (*QueryResult, error)) answer {
		res, err := query(context.Background(), "east", "t", sumQuery(), 0)
		if err != nil {
			return answer{err: err.Error()}
		}
		return answer{latency: res.Latency, fanout: res.Fanout, coverage: res.Coverage, rows: res.Rows}
	}
	a, b := open(), open()
	var answered, failed int
	for i := 0; i < 100; i++ {
		for _, exact := range []bool{true, false} {
			qa, qb := a.QueryBestEffort, b.QueryBestEffort
			if exact {
				qa, qb = a.Query, b.Query
			}
			x, y := ask(qa), ask(qb)
			if !reflect.DeepEqual(x, y) {
				t.Fatalf("query %d (exact=%v): one seed, two answers:\n%+v\n%+v", i, exact, x, y)
			}
			if exact && x.err == "" {
				t.Fatalf("query %d: exact query answered with a host down: %+v", i, x)
			}
			if !exact && x.err == "" {
				answered++
			} else if !exact {
				failed++
			}
		}
	}
	// A drawn fault fails a best-effort query after its plan left the
	// down host out, so the stream needs both kinds to replay anything.
	if answered == 0 || failed == 0 {
		t.Fatalf("best-effort queries: %d answered, %d failed; the stream never failed a live host's call, so it replays nothing", answered, failed)
	}
}

// A fault drawn on the wire reaches the region's coordinator: an exact
// query fails with the coordinator's worker error, not in its plan.
func TestWireFaultReachesCoordinator(t *testing.T) {
	cfg := DefaultDeploymentConfig()
	cfg.Policy.InitialPartitions = 4
	cfg.Transport.RequestFailureProb = 0.2
	d, err := Open(cfg, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("t", smallSchema()); err != nil {
		t.Fatal(err)
	}
	loadRows(t, d, "t", 200)
	for i := 0; i < 50; i++ {
		_, err := d.Query(context.Background(), "east", "t", sumQuery(), 0)
		if err == nil {
			continue
		}
		if !errors.Is(err, netexec.ErrWorkerFailed) || !errors.Is(err, cluster.ErrRequestFailed) || !errors.Is(err, ErrRegionUnavailable) {
			t.Fatalf("query %d: %v, want a drawn fault through the coordinator's ErrWorkerFailed", i, err)
		}
		return
	}
	t.Fatal("50 queries at a 20% fault rate drew no fault")
}

// Draws are keyed by query number and host, not taken from a shared
// stream, so two deployments opened with one seed report the same faults
// however 8 concurrent identical queries interleave. Over one partition
// each query makes one call, so a failed query is one fault on that
// partition's host: the per-host fault counts match. Over four, a
// fail-fast cancel may stop a faulted query's other calls before they
// draw, so what matches is the multiset of answers: how many queries
// failed, and each answered query's Latency, Fanout and rows.
func TestConcurrentQueriesReplayFaults(t *testing.T) {
	const workers, each = 8, 25
	// replay runs the queries against a fresh deployment whose table has
	// parts partitions; it returns the per-host fault counts and the
	// sorted answers.
	replay := func(parts int) (map[string]int, []string) {
		cfg := DefaultDeploymentConfig()
		cfg.Policy.InitialPartitions = parts
		cfg.Transport.RequestFailureProb = 0.2
		d, err := Open(cfg, epoch)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.CreateTable("t", smallSchema()); err != nil {
			t.Fatal(err)
		}
		loadRows(t, d, "t", 100)
		a, err := d.SM.Assignment(ServiceName("east"), d.Catalog.ShardOf("t", 0))
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		faults := make(map[string]int)
		var answers []string
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					res, err := d.Query(context.Background(), "east", "t", sumQuery(), 0)
					if err != nil && !errors.Is(err, cluster.ErrRequestFailed) {
						t.Errorf("query failed without a drawn fault: %v", err)
						return
					}
					mu.Lock()
					if err != nil {
						faults[a.Primary()]++
						answers = append(answers, "drawn fault")
					} else {
						answers = append(answers, fmt.Sprint(res.Latency, res.Fanout, res.Rows))
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		slices.Sort(answers)
		return faults, answers
	}
	fa, _ := replay(1)
	fb, _ := replay(1)
	if len(fa) == 0 {
		t.Fatalf("%d one-call queries at a 20%% fault rate drew no fault", workers*each)
	}
	if !reflect.DeepEqual(fa, fb) {
		t.Fatalf("one seed, two per-host fault counts: %v and %v", fa, fb)
	}
	_, aa := replay(4)
	_, ab := replay(4)
	if !slices.Contains(aa, "drawn fault") || aa[0] == "drawn fault" {
		t.Fatalf("answers %v: want both faulted and answered queries", aa)
	}
	if !reflect.DeepEqual(aa, ab) {
		t.Fatalf("one seed, two multisets of answers:\n%v\n%v", aa, ab)
	}
}
