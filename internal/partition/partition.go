// Package partition is the worker of the paper's query flow (§IV: a node
// holds table partitions and answers one partial per partition), once. A
// Set keeps everything a served partition needs — store, scan scheduler,
// rollup table — in one map entry, owns the node-wide cache levels and the
// admission controller, and runs the only admission → rollup → brick-pass
// ladder outside internal/engine. netexec.Worker (HTTP) and cubrick.Node
// (Shard Manager app server) are edges around it: they decide which
// partition a request names and how the answer travels, nothing else.
package partition

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"cubrick/internal/admission"
	"cubrick/internal/brick"
	"cubrick/internal/engine"
	"cubrick/internal/metrics"
	"cubrick/internal/rollup"
)

// ErrNoPartition is returned for a partition name the set does not serve.
var ErrNoPartition = errors.New("partition: not served here")

// ErrExists is returned when a partition name is already served.
var ErrExists = errors.New("partition: already served here")

// AdmissionError is how Partial reports that the admission controller
// turned the request away — the queue was full (admission.ErrQueueFull) or
// the caller gave up while queued — so an edge can tell a request that
// never ran from one that failed running. Its text is the cause's.
type AdmissionError struct{ Err error }

func (e *AdmissionError) Error() string { return e.Err.Error() }
func (e *AdmissionError) Unwrap() error { return e.Err }

// Config is the serving configuration of one worker. All of it is fixed at
// construction; the zero value serves unshared, uncached, rollup-less and
// unthrottled.
type Config struct {
	// FoldScans lets concurrent queries with equal fold keys share one
	// brick pass of the partition's scan scheduler (the -fold flag). A
	// request can still opt out with Opts.Unshared.
	FoldScans bool
	// DecodedCacheBytes budgets the storage layer's decoded-column cache
	// (hot compressed bricks keep their decoded columns resident), shared
	// by every partition of the set; 0 disables it.
	DecodedCacheBytes int64
	// RollupTimeDim names the time dimension incremental rollup tables
	// bucket on; empty disables rollups. Each partition whose schema has
	// the dimension gets a table that catches up on every ingest batch and
	// answers eligible queries without a raw scan (engine.ExecuteRollup).
	RollupTimeDim string
	// RollupBucket is the bucket width in time-dimension units; 0 means 1.
	RollupBucket uint32
	// RollupDims lists the dimensions rollup groups carry; empty means
	// every non-time dimension of the partition's schema. Dimensions a
	// schema lacks are skipped.
	RollupDims []string
	// RollupDistinct lists dimensions maintained as HLL sketches for
	// COUNT(DISTINCT) serving.
	RollupDistinct []string
	// MaxConcurrent caps concurrently executing partials; the excess
	// queues up to QueueDepth and is shed with admission.ErrQueueFull
	// beyond it. 0 admits everything.
	MaxConcurrent int
	QueueDepth    int
	// Metrics, when set, receives the engine, cache, storage and admission
	// instrumentation of everything the set serves.
	Metrics *metrics.Registry
}

// entry is everything one served partition owns. Dropping the map entry
// drops all of it at once.
type entry struct {
	store  *brick.Store
	sched  *engine.Scheduler
	rollup *rollup.Table // nil when rollups are off or the schema lacks the time dimension
}

// Set is the partitions one worker serves.
type Set struct {
	cfg          Config
	admit        *admission.Controller
	decodedCache *brick.DecodedCache

	mu    sync.Mutex
	parts map[string]*entry
}

// New builds an empty set with its cache levels and admission controller.
func New(cfg Config) *Set {
	s := &Set{
		cfg:          cfg,
		decodedCache: brick.NewDecodedCache(cfg.DecodedCacheBytes),
		parts:        make(map[string]*entry),
	}
	s.decodedCache.SetMetrics(cfg.Metrics)
	if cfg.MaxConcurrent > 0 {
		s.admit = admission.New(admission.Config{
			MaxConcurrent: cfg.MaxConcurrent,
			QueueDepth:    cfg.QueueDepth,
			Metrics:       cfg.Metrics,
		})
	}
	return s
}

// Config returns the configuration the set was built with.
func (s *Set) Config() Config { return s.cfg }

// Admission returns the set's admission controller, nil when
// MaxConcurrent is 0.
func (s *Set) Admission() *admission.Controller { return s.admit }

// NewStore builds a store wired to the set's decoded-column cache and
// metrics but not yet served: what a migration receive stages, and what
// Add adopts. (Cache keys carry a process-unique brick uid, so stores
// sharing the cache cannot collide.)
func (s *Set) NewStore(schema brick.Schema) (*brick.Store, error) {
	st, err := brick.NewStore(schema)
	if err != nil {
		return nil, err
	}
	if s.cfg.Metrics != nil {
		st.SetMetricsRegistry(s.cfg.Metrics)
	}
	if s.decodedCache != nil {
		st.SetDecodedCache(s.decodedCache)
	}
	return st, nil
}

// Add creates an empty partition and serves it.
func (s *Set) Add(name string, schema brick.Schema) error {
	st, err := s.NewStore(schema)
	if err != nil {
		return err
	}
	return s.Adopt(name, st)
}

// Adopt serves a store built by NewStore under name: it gets its scan
// scheduler and, when rollups are configured and the schema has the time
// dimension, a rollup table that the store's ingest observer keeps caught
// up. Queries never depend on the observer — Serve catches up again under
// its own lock — it only keeps query-time catch-up work near zero. A store
// that already holds rows (a promoted migration receive) is folded in by
// the table's first catch-up.
func (s *Set) Adopt(name string, st *brick.Store) error {
	tbl := s.newRollup(name, st.Schema())
	s.mu.Lock()
	if _, ok := s.parts[name]; ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	s.parts[name] = &entry{
		store:  st,
		sched:  engine.NewScheduler(st, engine.SchedulerConfig{Metrics: s.cfg.Metrics}),
		rollup: tbl,
	}
	s.mu.Unlock()
	if tbl != nil {
		st.SetIngestObserver(func() {
			if _, err := tbl.CatchUp(st); err != nil && s.cfg.Metrics != nil {
				s.cfg.Metrics.Counter("worker.rollup.catchup_errors").Inc()
			}
		})
	}
	return nil
}

// newRollup builds a partition's rollup table from the configuration, or
// returns nil when rollups do not apply to the schema.
func (s *Set) newRollup(name string, schema brick.Schema) *rollup.Table {
	if s.cfg.RollupTimeDim == "" || schema.DimIndex(s.cfg.RollupTimeDim) < 0 {
		return nil
	}
	cfg := rollup.Config{TimeDim: s.cfg.RollupTimeDim, Bucket: s.cfg.RollupBucket}
	if cfg.Bucket == 0 {
		cfg.Bucket = 1
	}
	if len(s.cfg.RollupDims) > 0 {
		for _, d := range s.cfg.RollupDims {
			if d != cfg.TimeDim && schema.DimIndex(d) >= 0 {
				cfg.Dims = append(cfg.Dims, d)
			}
		}
	} else {
		for _, d := range schema.Dimensions {
			if d.Name != cfg.TimeDim {
				cfg.Dims = append(cfg.Dims, d.Name)
			}
		}
	}
	for _, d := range s.cfg.RollupDistinct {
		if schema.DimIndex(d) >= 0 {
			cfg.DistinctDims = append(cfg.DistinctDims, d)
		}
	}
	tbl, err := rollup.New(schema, cfg)
	if err != nil {
		log.Printf("partition %q: rollup disabled: %v", name, err)
		return nil
	}
	return tbl
}

// Drop stops serving a partition and reports whether it was served.
func (s *Set) Drop(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.parts[name]
	delete(s.parts, name)
	return ok
}

// Reset stops serving every partition.
func (s *Set) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.parts = make(map[string]*entry)
}

func (s *Set) entry(name string) *entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.parts[name]
}

// Store returns a served partition's store.
func (s *Set) Store(name string) (*brick.Store, bool) {
	if e := s.entry(name); e != nil {
		return e.store, true
	}
	return nil, false
}

// RollupTable returns a served partition's rollup table, nil when it has
// none.
func (s *Set) RollupTable(name string) *rollup.Table {
	if e := s.entry(name); e != nil {
		return e.rollup
	}
	return nil
}

// Len returns how many partitions are served.
func (s *Set) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.parts)
}

// Stores returns every served store.
func (s *Set) Stores() []*brick.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*brick.Store, 0, len(s.parts))
	for _, e := range s.parts {
		out = append(out, e.store)
	}
	return out
}

// Compact runs one hotness-driven compaction pass over every served store
// (raw → encoded → SSD and back) and returns the summed tier transitions.
func (s *Set) Compact(cfg brick.CompactionConfig) (brick.CompactionStats, error) {
	var total brick.CompactionStats
	for _, st := range s.Stores() {
		stats, err := st.CompactOnce(cfg)
		total.Add(stats)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// DecayHotness cools every served brick — the compactor tick calls it
// before each pass so untouched bricks drift down the tier ladder (queries
// and ingest heat them back up).
func (s *Set) DecayHotness(factor float64) {
	for _, st := range s.Stores() {
		st.DecayHotness(factor)
	}
}

// FoldStats sums folding counters across the served partitions.
func (s *Set) FoldStats() engine.FoldStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total engine.FoldStats
	for _, e := range s.parts {
		st := e.sched.Stats()
		total.Solo += st.Solo
		total.Attached += st.Attached
		total.CatchupBricks += st.CatchupBricks
	}
	return total
}

// Opts are the per-request options of Partial.
type Opts struct {
	// Tenant and Priority are what the admission controller accounts the
	// request under.
	Tenant   string
	Priority int
	// Unshared runs the request on a private brick pass even when the set
	// folds scans (X-Cubrick-Fold: off).
	Unshared bool
	// NoCache promises a fully recomputed answer (X-Cubrick-Cache: off):
	// the rollup table and the decoded-column cache are both bypassed.
	NoCache bool
	// Admitted, when set, is called once the request holds its admission
	// slot and before it executes, with the time it queued — the point an
	// edge starts its execute span, so the span never counts queueing.
	Admitted func(queued time.Duration)
}

// Partial answers q over one partition: admission, then the partition's
// rollup table when the query is eligible, then a brick pass of its scan
// scheduler. It returns the partial, how it was computed (info.Rollup
// reports the rollup attempt) and the partition's ingest epoch read before
// execution — conservative, so a batch landing mid-scan (which the scan may
// have missed) yields a higher epoch than the one reported and a result
// cached under it invalidates the moment the newer epoch is learned.
func (s *Set) Partial(ctx context.Context, name string, q *engine.Query, o Opts) (*engine.Partial, engine.ExecInfo, uint64, error) {
	e := s.entry(name)
	if e == nil {
		return nil, engine.ExecInfo{}, 0, fmt.Errorf("%w: %q", ErrNoPartition, name)
	}
	epoch := e.store.Epoch()
	var queued time.Duration
	if s.admit != nil {
		tkt, err := s.admit.Admit(ctx, o.Tenant, o.Priority)
		if err != nil {
			return nil, engine.ExecInfo{}, epoch, &AdmissionError{err}
		}
		defer tkt.Release()
		queued = tkt.Queued
	}
	if o.Admitted != nil {
		o.Admitted(queued)
	}
	var rinfo engine.RollupInfo
	if e.rollup != nil && !o.NoCache {
		start := time.Now()
		p, ri, ok, err := engine.ExecuteRollup(ctx, e.store, e.rollup, q)
		// A rollup failure is an availability bug only if it fails the
		// query: record it and fall through to the raw path.
		rinfo = ri
		rinfo.Tried, rinfo.Err = true, err
		if err == nil && ok {
			return p, engine.ExecInfo{Timings: engine.Timings{Scan: time.Since(start)}, Rollup: rinfo}, epoch, nil
		}
	}
	p, info, err := e.sched.Run(ctx, q, engine.Opts{
		Unshared: !s.cfg.FoldScans || o.Unshared,
		NoCache:  o.NoCache,
	})
	info.Rollup = rinfo
	return p, info, epoch, err
}
