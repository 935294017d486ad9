package cubrick

import (
	"fmt"

	"cubrick/internal/cluster"
)

// Cluster resize (§II-C's fourth design question: "How to add and remove
// cluster nodes on-the-fly, while ensuring the system is properly load
// balanced?"). Adding a host registers an empty Cubrick server with SM —
// subsequent load-balancing runs migrate shards onto it; removing a host
// drains it gracefully first.

// AddHost provisions a new server in a region: fleet registration, node
// construction, agent start, and replicated-table catch-up. The host
// starts empty; run CollectMetrics+BalanceOnce (or wait for the periodic
// balancer) to shift load onto it.
func (d *Deployment) AddHost(region, rack, name string) (*Node, error) {
	found := false
	for _, r := range d.Config.Regions {
		if r == region {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("cubrick: unknown region %q", region)
	}
	h := &cluster.Host{
		Name:          name,
		Rack:          rack,
		Region:        region,
		CapacityBytes: d.Config.HostCapacityBytes,
	}
	if err := d.Fleet.Add(h); err != nil {
		return nil, err
	}
	node := NewNode(h, region, d.Catalog, d.Config.Node)
	node.SetPeerLookup(d.Node)
	node.SetRecoverySource(d.recoverySourceFor(node))
	d.mu.Lock()
	d.nodes[name] = node
	d.mu.Unlock()

	agent := newAgentFor(d, region, h, node)
	if err := agent.Start(); err != nil {
		d.Fleet.Remove(name)
		d.mu.Lock()
		delete(d.nodes, name)
		d.mu.Unlock()
		return nil, err
	}
	d.mu.Lock()
	d.agents[name] = agent
	d.mu.Unlock()

	// New hosts must carry every replicated dimension table (§II-B).
	if err := d.ReplayReplicated(name); err != nil {
		return nil, err
	}
	return node, nil
}

// RemoveHost decommissions a server: its shards are gracefully drained to
// the rest of the region, the propagation wait flushes the delayed drops,
// and the host leaves the fleet — the automation workflow of §IV-G.
func (d *Deployment) RemoveHost(name string) error {
	h, err := d.Fleet.Host(name)
	if err != nil {
		return err
	}
	svc := ServiceName(h.Region)
	h.SetState(cluster.Draining)
	if _, err := d.SM.DrainServer(svc, name); err != nil {
		h.SetState(cluster.Up)
		return fmt.Errorf("cubrick: draining %s: %w", name, err)
	}
	// Flush the graceful-migration drops before the host disappears.
	d.Clock.Advance(d.Config.PropagationWait + 1)
	h.SetState(cluster.Drained)

	d.mu.Lock()
	agent := d.agents[name]
	delete(d.agents, name)
	delete(d.nodes, name)
	d.mu.Unlock()
	if agent != nil {
		agent.Stop()
	}
	d.SM.Sweep()
	return d.Fleet.Remove(name)
}
