// Package proxy implements the Cubrick proxy service (§IV-D): the stateless
// front door all queries go through. The proxy picks the most suitable
// region (skipping drained or failing ones), transparently retries queries
// that hit hardware failures in a different region, applies admission
// control and blacklisting, and keeps the partitions-per-table cache that
// makes coordinator selection free (§IV-C strategy 4).
package proxy

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"cubrick/internal/core"
	"cubrick/internal/cubrick"
	"cubrick/internal/engine"
	"cubrick/internal/metrics"
	"cubrick/internal/randutil"
)

// Errors returned by the proxy.
var (
	// ErrAdmission is returned when the proxy is at its concurrent query
	// limit.
	ErrAdmission = errors.New("proxy: admission control rejected query")
	// ErrBlacklisted is returned for tables currently blacklisted.
	ErrBlacklisted = errors.New("proxy: table blacklisted")
	// ErrAllRegionsFailed is returned when every region attempt failed.
	ErrAllRegionsFailed = errors.New("proxy: query failed in all regions")
)

// Config parameterizes a proxy instance.
type Config struct {
	// PreferredRegions orders regions by proximity; the proxy tries them
	// in order (§IV-D: region choice considers proximity to the client).
	PreferredRegions []string
	// MaxConcurrent bounds in-flight queries (admission control). Zero
	// means unlimited.
	MaxConcurrent int
	// BlacklistThreshold is how many consecutive failures blacklist a
	// table. Zero disables blacklisting.
	BlacklistThreshold int
	// Strategy selects the coordinator-selection strategy; the
	// production default is CachedRandom (§IV-C).
	Strategy core.CoordinatorStrategy
}

// Proxy fronts a Cubrick deployment.
type Proxy struct {
	dep   *cubrick.Deployment
	cfg   Config
	cache *core.PartitionCountCache
	// rnd is a concurrency-safe uniform sampler (queries run in parallel).
	rnd func() float64

	mu        sync.Mutex
	inflight  int
	failures  map[string]int  // consecutive failures per table
	blacklist map[string]bool // blacklisted tables

	// Stats observable by operators.
	Queries    metrics.Counter
	Retries    metrics.Counter
	Rejections metrics.Counter
	Failures   metrics.Counter
	Latency    *metrics.Histogram
}

// New creates a proxy over a deployment. rnd drives coordinator
// randomization; it must not be shared with concurrent users.
func New(dep *cubrick.Deployment, cfg Config, rnd *randutil.Source) *Proxy {
	if len(cfg.PreferredRegions) == 0 {
		cfg.PreferredRegions = dep.Config.Regions
	}
	return &Proxy{
		dep:       dep,
		cfg:       cfg,
		cache:     core.NewPartitionCountCache(),
		rnd:       rnd.LockedFloat64(),
		failures:  make(map[string]int),
		blacklist: make(map[string]bool),
		Latency:   metrics.NewLatencyHistogram(),
	}
}

// Cache exposes the partitions-per-table cache (for tests and stats).
func (p *Proxy) Cache() *core.PartitionCountCache { return p.cache }

// Blacklisted reports whether a table is currently blacklisted.
func (p *Proxy) Blacklisted(table string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.blacklist[table]
}

// Unblacklist clears a table's blacklist entry (operator action).
func (p *Proxy) Unblacklist(table string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.blacklist, table)
	p.failures[table] = 0
}

func (p *Proxy) admit() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cfg.MaxConcurrent > 0 && p.inflight >= p.cfg.MaxConcurrent {
		p.Rejections.Inc()
		return ErrAdmission
	}
	p.inflight++
	return nil
}

func (p *Proxy) release() {
	p.mu.Lock()
	p.inflight--
	p.mu.Unlock()
}

func (p *Proxy) noteFailure(table string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failures[table]++
	if p.cfg.BlacklistThreshold > 0 && p.failures[table] >= p.cfg.BlacklistThreshold {
		p.blacklist[table] = true
	}
}

func (p *Proxy) noteSuccess(table string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failures[table] = 0
}

// picker builds the coordinator picker for a table.
func (p *Proxy) picker() *core.Picker {
	return &core.Picker{
		Strategy: p.cfg.Strategy,
		Cache:    p.cache,
		Rand:     p.rnd,
		LookupPartitions: func(table string) (int, error) {
			info, err := p.dep.Catalog.Table(table)
			if err != nil {
				return 0, err
			}
			return info.Partitions, nil
		},
	}
}

// Query runs a query through the proxy under ctx: admission control,
// coordinator selection, region selection with transparent retries,
// blacklisting and cache refresh from result metadata. A query whose ctx
// is cancelled or past its deadline returns at once: no region can answer
// it, and the table is not at fault.
func (p *Proxy) Query(ctx context.Context, table string, q *engine.Query) (*cubrick.QueryResult, error) {
	p.Queries.Inc()
	if p.Blacklisted(table) {
		p.Rejections.Inc()
		return nil, fmt.Errorf("%w: %s", ErrBlacklisted, table)
	}
	if err := p.admit(); err != nil {
		return nil, err
	}
	defer p.release()

	coord, _, err := p.picker().Pick(table)
	if err != nil {
		p.Failures.Inc()
		p.noteFailure(table)
		return nil, err
	}

	var lastErr error
	for _, region := range p.cfg.PreferredRegions {
		res, err := p.dep.Query(ctx, region, table, q, coord)
		if err == nil {
			p.noteSuccess(table)
			// Refresh the partition cache from result metadata (§IV-C):
			// re-partitions propagate to clients with zero extra round
			// trips.
			p.cache.Update(table, res.Partitions)
			p.Latency.Observe(res.Latency.Seconds())
			return res, nil
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		lastErr = err
		if errors.Is(err, cubrick.ErrRegionUnavailable) {
			// Hardware failure / partition unavailable in this region:
			// transparently retry the next one (§IV-D).
			p.Retries.Inc()
			continue
		}
		// Semantic errors (unknown table, bad query) fail fast.
		p.Failures.Inc()
		p.noteFailure(table)
		return nil, err
	}
	p.Failures.Inc()
	p.noteFailure(table)
	// Both %w: the last region's cause stays matchable (a query shed by
	// every region's admission control still maps to 429 at the edge).
	return nil, fmt.Errorf("%w: %w", ErrAllRegionsFailed, lastErr)
}
