package shardmgr

import (
	"errors"
	"fmt"
	"sort"
)

// BalanceOnce runs one load-balancing pass for a service (§III-A3): it
// moves shards from the most loaded servers to the least loaded until the
// spread is within the configured imbalance ratio or the per-run migration
// throttle is hit. It returns the number of migrations started.
//
// Balancing uses the loads last gathered by CollectMetrics; callers should
// collect first.
func (s *Server) BalanceOnce(serviceName string) (int, error) {
	s.mu.Lock()
	svc, ok := s.services[serviceName]
	if !ok {
		s.mu.Unlock()
		return 0, fmt.Errorf("%w: %s", ErrUnknownService, serviceName)
	}
	maxMoves := svc.cfg.MaxMigrationsPerRun
	if maxMoves == 0 {
		maxMoves = 1
	}
	s.mu.Unlock()

	moves := 0
	for moves < maxMoves {
		shard, from, to, ok := s.pickMove(svc)
		if !ok {
			break
		}
		if err := s.MigrateShard(serviceName, shard, from, to); err != nil {
			if errors.Is(err, ErrNonRetryable) {
				// Target refused (collision); exclude it next iteration by
				// virtue of the re-pick seeing unchanged state but a
				// different candidate. To avoid livelock, stop this run.
				break
			}
			return moves, err
		}
		moves++
	}
	return moves, nil
}

// PlanMove exposes the balancer's next proposed move without executing
// it: the (shard, from, to) that best narrows the load gap, ok=false when
// the service is already balanced. External migration drivers — the HTTP
// data plane's online shard migration (internal/migrate) — ask the
// balancer brain where to move and run the copy/cutover themselves.
func (s *Server) PlanMove(serviceName string) (shard int64, from, to string, ok bool, err error) {
	s.mu.Lock()
	svc, found := s.services[serviceName]
	s.mu.Unlock()
	if !found {
		return 0, "", "", false, fmt.Errorf("%w: %s", ErrUnknownService, serviceName)
	}
	shard, from, to, ok = s.pickMove(svc)
	return shard, from, to, ok, nil
}

// pickMove selects the next (shard, from, to) move that best narrows the
// load gap, or ok=false if the service is already balanced.
func (s *Server) pickMove(svc *service) (shard int64, from, to string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()

	type hostLoad struct {
		name string
		load float64
	}
	var hosts []hostLoad
	for name, h := range svc.servers {
		if h.host.Available() {
			hosts = append(hosts, hostLoad{name, svc.hostLoad(name)})
		}
	}
	if len(hosts) < 2 {
		return 0, "", "", false
	}
	sort.Slice(hosts, func(i, j int) bool {
		if hosts[i].load != hosts[j].load {
			return hosts[i].load > hosts[j].load
		}
		return hosts[i].name < hosts[j].name
	})
	// Sum in sorted order: float addition is not associative, so a sum in
	// map order could differ from run to run under one seed.
	var total float64
	for _, h := range hosts {
		total += h.load
	}
	mean := total / float64(len(hosts))
	hi, lo := hosts[0], hosts[len(hosts)-1]
	gap := hi.load - lo.load
	threshold := svc.cfg.ImbalanceRatio * mean
	if mean == 0 || gap <= threshold {
		return 0, "", "", false
	}

	// Choose the shard on the hottest host whose size best approximates
	// half the gap — moving it shrinks the gap the most without
	// overshooting into oscillation.
	target := gap / 2
	bestShard := int64(-1)
	bestDist := 0.0
	for sh := range svc.hostShards[hi.name] {
		sz := svc.shardLoad(sh)
		if sz <= 0 || sz > gap {
			continue
		}
		dist := sz - target
		if dist < 0 {
			dist = -dist
		}
		// Ties go to the lower shard id, not to map order, so a seeded
		// run replays.
		if bestShard == -1 || dist < bestDist || dist == bestDist && sh < bestShard {
			bestShard, bestDist = sh, dist
		}
	}
	if bestShard == -1 {
		return 0, "", "", false
	}
	// The coldest eligible host takes it; eligibility re-checks spread,
	// duplication and capacity via candidates().
	cands := svc.candidates(bestShard, map[string]bool{hi.name: true})
	if len(cands) == 0 {
		return 0, "", "", false
	}
	return bestShard, hi.name, cands[0].host.Name, true
}

// MigrateShard executes a live (graceful) migration of one replica of a
// shard from one healthy server to another, following the §IV-E protocol:
//
//	prepareAddShard(to)  — to copies data from from, can answer forwarded
//	prepareDropShard(from) — from starts forwarding to to
//	addShard(to)         — to owns the shard
//	publish to discovery — clients learn the new mapping, with delay
//	dropShard(from)      — after PropagationWait, from deletes the data
//
// A non-retryable rejection from the target aborts the migration leaving
// the source intact.
func (s *Server) MigrateShard(serviceName string, shard int64, from, to string) error {
	s.mu.Lock()
	svc, ok := s.services[serviceName]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownService, serviceName)
	}
	role, hasShard := svc.hostShards[from][shard]
	fromH, fromOK := svc.servers[from]
	toH, toOK := svc.servers[to]
	wait := svc.cfg.PropagationWait
	s.mu.Unlock()

	if !hasShard {
		return fmt.Errorf("%w: %s/%d not on %s", ErrNotAssigned, serviceName, shard, from)
	}
	if !fromOK {
		return fmt.Errorf("%w: %s", ErrUnknownServer, from)
	}
	if !toOK {
		return fmt.Errorf("%w: %s", ErrUnknownServer, to)
	}

	// Graceful protocol (§IV-E). Application endpoints are called without
	// holding the SM lock: they move data.
	if err := toH.app.PrepareAddShard(shard, from); err != nil {
		return err
	}
	if err := fromH.app.PrepareDropShard(shard, to); err != nil {
		return err
	}
	if err := toH.app.AddShard(shard, role); err != nil {
		return err
	}

	s.mu.Lock()
	s.removeReplica(svc, shard, from)
	s.recordReplica(svc, shard, to, role)
	pub := s.publishLocked(svc, shard)
	at := s.clock.Now()
	s.mu.Unlock()
	pub()

	// Wait out discovery propagation before dropping the old copy; Cubrick
	// additionally waits for the request rate to the old replica to reach
	// zero, which its DropShard implementation handles (§IV-E). The drop
	// re-checks ownership at fire time: if the shard migrated back to the
	// old server in the meantime, deleting it would destroy live data.
	app := fromH.app
	s.clock.Schedule(wait, func() {
		s.mu.Lock()
		_, ownsAgain := svc.hostShards[from][shard]
		s.mu.Unlock()
		if ownsAgain {
			return
		}
		_ = app.DropShard(shard)
	})

	s.countAdd("shardmgr.migrations", 1)
	s.emit(MigrationEvent{Service: serviceName, Shard: shard, From: from, To: to, Kind: LiveMigration, At: at})
	return nil
}

// DrainServer gracefully migrates every shard off a host (data-center
// automation: decommissions, maintenance, disaster exercises — §IV-G). It
// returns the number of shards moved. The server stays registered; callers
// typically unregister or stop it once drained.
func (s *Server) DrainServer(serviceName, hostName string) (int, error) {
	s.mu.Lock()
	svc, ok := s.services[serviceName]
	if !ok {
		s.mu.Unlock()
		return 0, fmt.Errorf("%w: %s", ErrUnknownService, serviceName)
	}
	if _, ok := svc.servers[hostName]; !ok {
		s.mu.Unlock()
		return 0, fmt.Errorf("%w: %s", ErrUnknownServer, hostName)
	}
	shards := make([]int64, 0, len(svc.hostShards[hostName]))
	for shard := range svc.hostShards[hostName] {
		shards = append(shards, shard)
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i] < shards[j] })
	s.mu.Unlock()

	moved := 0
	for _, shard := range shards {
		s.mu.Lock()
		cands := svc.candidates(shard, map[string]bool{hostName: true})
		s.mu.Unlock()
		migrated := false
		for _, cand := range cands {
			err := s.MigrateShard(serviceName, shard, hostName, cand.host.Name)
			if err == nil {
				moved++
				migrated = true
				break
			}
			if !errors.Is(err, ErrNonRetryable) {
				return moved, err
			}
			// Collision at this target; try the next candidate (§IV-A).
		}
		if !migrated {
			return moved, fmt.Errorf("%w: %s/%d off %s", ErrNoPlacement, serviceName, shard, hostName)
		}
	}
	return moved, nil
}

// ShardsOn returns the shard ids currently placed on a host, sorted.
func (s *Server) ShardsOn(serviceName, hostName string) ([]int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	svc, ok := s.services[serviceName]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownService, serviceName)
	}
	shards := make([]int64, 0, len(svc.hostShards[hostName]))
	for shard := range svc.hostShards[hostName] {
		shards = append(shards, shard)
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i] < shards[j] })
	return shards, nil
}
