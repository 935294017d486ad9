// Dual-read window and dynamic placement for online shard migration.
//
// When a migration flips a partition's ownership, coordinators learn the
// new placement through discovery propagation — which is eventually
// consistent, so for a bounded window a query may race the flip: route to
// the old owner after the drop, or to the new owner before the final
// delta landed. The dual-read window removes the race by construction:
// for migrate.Config.DualReadWindow after a flip, queries fetch the
// partition from BOTH placements and keep the answer with the higher
// ingest epoch (Coordinator.fetchPartition). The old owner keeps its
// (fenced, frozen) copy until the window closes, so whichever placement a
// laggy component still believes in can serve.
package netexec

import (
	"time"

	"cubrick/internal/core"
)

// ResetEpoch forgets the coordinator's known ingest epoch for a partition.
// Ownership flips call this: the known-epoch map is deliberately monotonic
// (stale observations from lagging replicas are ignored), so after a
// migration the map must be re-seeded from the new owner rather than
// letting observations race the old owner's history.
func (c *Coordinator) ResetEpoch(partition string) {
	c.epochMu.Lock()
	delete(c.epochs, partition)
	c.epochMu.Unlock()
}

// placementOverride is a partition routed away from its static modulo
// placement — the result of a migration flip. prev holds the old
// placement until prevUntil so queries dual-read across the window.
type placementOverride struct {
	urls      []string
	prev      []string
	prevUntil time.Time
}

// AddWorker joins a new worker to the cluster without disturbing the
// static placement of existing partitions: the worker starts empty and
// receives load only through explicit MovePartition calls (the scale-out
// path — netexec keeps placement deliberately dumb; the balancer brain
// lives in shardmgr). Returns false if the URL is already a member.
func (c *Cluster) AddWorker(url string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		if w == url {
			return false
		}
	}
	for _, w := range c.joiners {
		if w == url {
			return false
		}
	}
	c.joiners = append(c.joiners, url)
	return true
}

// MovePartition reroutes a partition to a new placement, retaining the
// previous placement — an earlier move's, or the static one on a first
// move — for dual reads until window elapses. It also resets
// the coordinator's known epoch for the partition and drops every cached
// result the partition contributed to: cached entries are pinned to the
// old placement's epoch vector, and across an ownership change they must
// revalidate against the new owner or miss — never serve stale rows.
func (c *Cluster) MovePartition(partition string, to []string, window time.Duration) {
	c.mu.Lock()
	prev := c.placementLocked(partition)
	if c.overrides == nil {
		c.overrides = make(map[string]*placementOverride)
	}
	c.overrides[partition] = &placementOverride{
		urls:      append([]string(nil), to...),
		prev:      prev,
		prevUntil: time.Now().Add(window),
	}
	c.mu.Unlock()
	c.coord.ResetEpoch(partition)
	if c.coord.ResultCache != nil {
		c.coord.ResultCache.Invalidate(partition)
	}
}

// placementLocked returns the partition's current placement: its override
// if it has one, else the static placement of its table's shard (nil for a
// partition of no known table). Callers hold c.mu.
func (c *Cluster) placementLocked(partition string) []string {
	if ov, ok := c.overrides[partition]; ok {
		return append([]string(nil), ov.urls...)
	}
	table, p, err := core.SplitPartitionName(partition)
	if err != nil {
		return nil
	}
	t, ok := c.tables[table]
	if !ok {
		return nil
	}
	return c.placement(c.mapper.Shard(table, p), t.replicas)
}

// route resolves a partition's placement for ingest and queries: the
// override when one exists, the static modulo placement otherwise. dual
// is the previous placement while the dual-read window is open.
func (c *Cluster) route(partition string, shard int64, replicas int) (urls, dual []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ov, ok := c.overrides[partition]; ok {
		urls = append([]string(nil), ov.urls...)
		if len(ov.prev) > 0 && time.Now().Before(ov.prevUntil) {
			dual = append([]string(nil), ov.prev...)
		}
		return urls, dual
	}
	return c.placement(shard, replicas), nil
}

// PartitionPlacement resolves a table partition's current placement and
// (when a dual-read window is open) its previous one — what a migration
// driver consults to find the source of a move.
func (c *Cluster) PartitionPlacement(table string, p int) (urls, dual []string, err error) {
	t, err := c.table(table)
	if err != nil {
		return nil, nil, err
	}
	part := core.PartitionName(table, p)
	urls, dual = c.route(part, c.mapper.Shard(table, p), t.replicas)
	return urls, dual, nil
}
