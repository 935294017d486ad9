// Package partition is the worker of the paper's query flow (§IV: a node
// holds table partitions and answers for all of a query's partitions it
// holds), once. A Set maps each served partition to its store, owns the
// node-wide decoded-column cache and the admission controller, and runs
// the only admission → brick-pass path outside internal/engine: one ticket
// and one pass per call, whatever the number of partitions it names.
// netexec.Worker (HTTP) and cubrick.Node (Shard Manager app server) are
// edges around it: they decide which partitions a request names and how
// the answer travels, nothing else.
package partition

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"cubrick/internal/admission"
	"cubrick/internal/brick"
	"cubrick/internal/engine"
	"cubrick/internal/metrics"
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
// construction; the zero value serves uncached and unthrottled.
type Config struct {
	// DecodedCacheBytes budgets the storage layer's decoded-column cache
	// (hot compressed bricks keep their decoded columns resident), shared
	// by every partition of the set; 0 disables it.
	DecodedCacheBytes int64
	// MaxConcurrent caps concurrently executing Partial calls; the excess
	// queues up to QueueDepth and is shed with admission.ErrQueueFull
	// beyond it. 0 admits everything.
	MaxConcurrent int
	QueueDepth    int
	// Metrics, when set, receives the cache, storage and admission
	// instrumentation of everything the set serves.
	Metrics *metrics.Registry
}

// Set is the partitions one worker serves. A replicated dimension table's
// replica is a store of the set too, served under the table's plain name:
// partition names always hold a '#' and table names never do, so the two
// cannot collide.
type Set struct {
	cfg          Config
	admit        *admission.Controller
	decodedCache *brick.DecodedCache

	mu    sync.Mutex
	parts map[string]*brick.Store
}

// New builds an empty set with its cache levels and admission controller.
func New(cfg Config) *Set {
	s := &Set{
		cfg:          cfg,
		decodedCache: brick.NewDecodedCache(cfg.DecodedCacheBytes),
		parts:        make(map[string]*brick.Store),
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

// Adopt serves a store built by NewStore under name. A store that already
// holds rows (a promoted migration receive) is served as it stands.
func (s *Set) Adopt(name string, st *brick.Store) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.parts[name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	s.parts[name] = st
	return nil
}

// Drop stops serving a partition, retiring its store from the decoded
// cache, and reports whether it was served.
func (s *Set) Drop(name string) bool {
	s.mu.Lock()
	st, ok := s.parts[name]
	delete(s.parts, name)
	s.mu.Unlock()
	if ok {
		st.Retire()
	}
	return ok
}

// Reset stops serving every partition, retiring their stores.
func (s *Set) Reset() {
	s.mu.Lock()
	old := s.parts
	s.parts = make(map[string]*brick.Store)
	s.mu.Unlock()
	for _, st := range old {
		st.Retire()
	}
}

// Store returns a served partition's store.
func (s *Set) Store(name string) (*brick.Store, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.parts[name]
	return st, ok
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
	for _, st := range s.parts {
		out = append(out, st)
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

// Opts are the per-request options of Partial.
type Opts struct {
	// Priority orders the request in the admission queue.
	Priority int
	// NoCache promises a fully recomputed answer (X-Cubrick-Cache: off):
	// the decoded-column cache is bypassed.
	NoCache bool
	// Admitted, when set, is called once the request holds its admission
	// slot and before it executes, with the time it queued — the point an
	// edge starts its execute span, so the span never counts queueing.
	Admitted func(queued time.Duration)
}

// Partial answers q over the named partitions into cb, which must be
// empty: every name is resolved first, so a partition not served here
// (ErrNoPartition), a name listed twice or partitions of different schemas
// fail the call before it queues or scans, and so does a joined query
// whose dimension table (a store served under the table's plain name) is
// not here. Then one admission ticket and one brick pass over all of their
// stores, whose bricks fold into cb in list order, brick-id order within
// each partition. It returns how the pass ran and each partition's ingest
// epoch, in list order, read before execution — conservative, so a batch
// landing mid-scan (which the scan may have missed) yields a higher epoch
// than the one reported and a result cached under it invalidates the
// moment the newer epoch is learned.
func (s *Set) Partial(ctx context.Context, names []string, q *engine.Query, o Opts, cb *engine.Combiner) (engine.ExecInfo, []uint64, error) {
	stores, err := s.resolve(names)
	if err != nil {
		return engine.ExecInfo{}, nil, err
	}
	var dim *brick.Store
	if q.Join != nil {
		if dim, _ = s.Store(q.Join.Table); dim == nil {
			return engine.ExecInfo{}, nil, fmt.Errorf("%w: join table %q", ErrNoPartition, q.Join.Table)
		}
	}
	epochs := make([]uint64, len(stores))
	for i, st := range stores {
		epochs[i] = st.Epoch()
	}
	var queued time.Duration
	if s.admit != nil {
		tkt, err := s.admit.Admit(ctx, o.Priority)
		if err != nil {
			return engine.ExecInfo{}, nil, &AdmissionError{err}
		}
		defer tkt.Release()
		queued = tkt.Queued
	}
	if o.Admitted != nil {
		o.Admitted(queued)
	}
	info, err := engine.Run(ctx, q, engine.Opts{NoCache: o.NoCache, Dim: dim}, cb, stores...)
	return info, epochs, err
}

// resolve returns the stores of a call's partitions, in list order. A
// partition named twice would fold into the answer twice, and partitions
// of different schemas cannot share a pass: its kernel addresses groups by
// their offset in one schema's domain.
func (s *Set) resolve(names []string) ([]*brick.Store, error) {
	if len(names) == 0 {
		return nil, errors.New("partition: Partial names no partition")
	}
	stores := make([]*brick.Store, len(names))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, name := range names {
		st, ok := s.parts[name]
		switch {
		case !ok:
			return nil, fmt.Errorf("%w: %q", ErrNoPartition, name)
		case slices.Contains(names[:i], name):
			return nil, fmt.Errorf("partition: Partial names partition %q twice", name)
		case i > 0 && !sameSchema(st.Schema(), stores[0].Schema()):
			return nil, fmt.Errorf("partition: Partial names partitions of different schemas (%q)", name)
		}
		stores[i] = st
	}
	return stores, nil
}

func sameSchema(a, b brick.Schema) bool {
	return slices.Equal(a.Dimensions, b.Dimensions) && slices.Equal(a.Metrics, b.Metrics)
}
