// Package netexec is the networked data plane: Cubrick's scatter-gather
// over real HTTP instead of in-process calls. A Worker serves partition
// stores (ingest and partial-query execution) over HTTP; a Coordinator
// fans a query out to the workers holding the table's partitions, merges
// the returned wire partials and finalizes — exactly the paper's execution
// flow ("Each node eventually returns a partial result, which are merged
// and materialized on a query coordinator node"), with partials crossing a
// real network boundary.
//
// The data plane is built for fan-out: partials stream into the
// coordinator's accumulator as they arrive (no barrier, first failure
// cancels the peers), wire blobs fold in via engine.MergeWire without an
// intermediate Partial, and bulk ingest ships packed columnar batches to
// POST /loadbin instead of per-row JSON.
package netexec

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cubrick/internal/admission"
	"cubrick/internal/brick"
	"cubrick/internal/engine"
	"cubrick/internal/metrics"
	"cubrick/internal/partition"
	"cubrick/internal/rescache"
	"cubrick/internal/trace"
)

// SchemaJSON is the wire form of a brick schema.
type SchemaJSON struct {
	Dimensions []struct {
		Name    string `json:"name"`
		Max     uint32 `json:"max"`
		Buckets uint32 `json:"buckets"`
	} `json:"dimensions"`
	Metrics []struct {
		Name string `json:"name"`
	} `json:"metrics"`
}

// ToSchema converts the wire form.
func (sj SchemaJSON) ToSchema() brick.Schema {
	var s brick.Schema
	for _, d := range sj.Dimensions {
		s.Dimensions = append(s.Dimensions, brick.Dimension{Name: d.Name, Max: d.Max, Buckets: d.Buckets})
	}
	for _, m := range sj.Metrics {
		s.Metrics = append(s.Metrics, brick.Metric{Name: m.Name})
	}
	return s
}

// FromSchema converts to the wire form.
func FromSchema(s brick.Schema) SchemaJSON {
	var sj SchemaJSON
	for _, d := range s.Dimensions {
		sj.Dimensions = append(sj.Dimensions, struct {
			Name    string `json:"name"`
			Max     uint32 `json:"max"`
			Buckets uint32 `json:"buckets"`
		}{d.Name, d.Max, d.Buckets})
	}
	for _, m := range s.Metrics {
		sj.Metrics = append(sj.Metrics, struct {
			Name string `json:"name"`
		}{m.Name})
	}
	return sj
}

// Worker is the HTTP edge of a partition.Set: it serves the set's
// partitions (ingest and partial-query execution) to a remote coordinator.
//
//	POST /partition  {"name": ..., "schema": {...}}     create a partition
//	POST /loadbin    binary columnar batch (see EncodeBatch)
//	POST /partial    {"partitions": [...], "query": {...}} execute one
//	                 brick pass over the partitions, returns their binary
//	                 engine partial (application/octet-stream), sent raw
//	GET  /health     liveness
//
// plus the migration plane (transfer.go). Serving behaviour — the
// decoded-column cache, admission, the metrics registry — is the set's
// partition.Config, fixed by NewWorker; the fields below configure the
// edge only and are set before the first request.
//
// With Tracer set, /partial continues the coordinator's trace (trace
// context arrives in X-Cubrick-Trace / X-Cubrick-Span headers) and also
// serves the worker's own ring at GET /debug/trace[/{id}]. With a metrics
// registry configured, request counters and latency histograms accumulate
// and are served in Prometheus text format at GET /metrics.
type Worker struct {
	// Tracer, when set, records worker-side spans (partial handling,
	// execute with scan accounting, marshal) into propagated traces.
	Tracer *trace.Tracer

	parts   *partition.Set
	metrics *metrics.Registry // parts.Config().Metrics

	// fenceMu guards fenced: partitions mid-cutover that reject ingest
	// with a retryable 503 while their migration flips ownership.
	fenceMu sync.Mutex
	fenced  map[string]bool

	// combiners holds the idle group states of /partial calls, reused call
	// after call so a host answer allocates neither per partition nor per
	// group. It is a list rather than a sync.Pool: a pool empties at
	// garbage collection, and a lost combiner regrows its whole group state
	// (a megabyte or more for a call answering a few thousand groups,
	// dozens of times what the rest of the call allocates). It keeps at
	// most idleCombinerSlots, and Reset drops the buffers of one that grew
	// past its bound.
	combiners chan *engine.Combiner
}

// NewWorker returns an empty worker serving under cfg.
func NewWorker(cfg partition.Config) *Worker {
	return &Worker{
		parts:     partition.New(cfg),
		metrics:   cfg.Metrics,
		combiners: make(chan *engine.Combiner, idleCombinerSlots(cfg)),
	}
}

// Parts returns the partitions the worker serves. Drop partitions through
// RemovePartition, which also clears the fence.
func (w *Worker) Parts() *partition.Set { return w.parts }

func (w *Worker) countAdd(name string, delta int64) {
	if w.metrics != nil {
		w.metrics.Counter(name).Add(delta)
	}
}

func (w *Worker) observe(name string, d time.Duration) {
	if w.metrics != nil {
		w.metrics.Histogram(name).Observe(d.Seconds())
	}
}

// AddPartition creates a partition store.
func (w *Worker) AddPartition(name string, schema brick.Schema) error {
	return w.parts.Add(name, schema)
}

// Store returns a partition's store.
func (w *Worker) Store(name string) (*brick.Store, error) {
	st, ok := w.parts.Store(name)
	if !ok {
		return nil, fmt.Errorf("netexec: no partition %q", name)
	}
	return st, nil
}

// Handler returns the worker's HTTP handler.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/health", func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusOK)
		io.WriteString(rw, "ok")
	})
	mux.HandleFunc("/partition", func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var req struct {
			Name   string     `json:"name"`
			Schema SchemaJSON `json:"schema"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		if err := w.AddPartition(req.Name, req.Schema.ToSchema()); err != nil {
			http.Error(rw, err.Error(), http.StatusConflict)
			return
		}
		rw.WriteHeader(http.StatusCreated)
	})
	mux.HandleFunc("/loadbin", func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		data, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		part, dimCols, metricCols, rows, err := DecodeBatch(data)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		st, err := w.Store(part)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusNotFound)
			return
		}
		if w.IsFenced(part) {
			w.countAdd("worker.load.fenced_rejects", 1)
			http.Error(rw, fencedMsg, http.StatusServiceUnavailable)
			return
		}
		if rows > 0 {
			if err := st.InsertBatch(dimCols, metricCols); err != nil {
				http.Error(rw, err.Error(), http.StatusBadRequest)
				return
			}
		}
		rw.Header().Set(HeaderEpoch, strconv.FormatUint(st.Epoch(), 10))
		w.countAdd("worker.load.requests", 1)
		w.countAdd("worker.load.rows", int64(rows))
		fmt.Fprintf(rw, `{"loaded":%d}`, rows)
	})
	mux.HandleFunc("/partial", func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		start := time.Now()
		ctx := r.Context()
		var wspan *trace.Span
		if w.Tracer != nil {
			// Continue the coordinator's trace when context was propagated;
			// otherwise the worker records a local trace of its own.
			tid, sid, _ := trace.Extract(r.Header)
			ctx, wspan = w.Tracer.StartRemoteSpan(ctx, "worker.partial", tid, sid)
		}
		status, err := w.servePartial(ctx, rw, r)
		if err != nil {
			http.Error(rw, err.Error(), status)
		}
		wspan.EndErr(err)
		w.countAdd("worker.partial.requests", 1)
		if err != nil {
			w.countAdd("worker.partial.errors", 1)
		}
		w.observe("worker.partial.latency", time.Since(start))
	})
	if w.metrics != nil {
		mux.Handle("/metrics", metrics.Handler(w.metrics))
	}
	if w.Tracer != nil {
		th := w.Tracer.Handler()
		mux.Handle("/debug/trace", th)
		mux.Handle("/debug/trace/", th)
	}
	w.registerMigration(mux)
	return mux
}

// attrMS annotates a span with a duration in fractional milliseconds.
func attrMS(s *trace.Span, key string, d time.Duration) {
	if s != nil {
		s.SetAttr(key, strconv.FormatFloat(float64(d)/float64(time.Millisecond), 'f', 3, 64))
	}
}

// The reply buffer of /partial calls, reused call after call.
var wireBufPool = sync.Pool{New: func() any { return new([]byte) }}

// idleCombinerSlots is how many /partial calls can hold a combiner at
// once, so how many idle combiners the worker keeps: with admission on,
// every call it runs or queues (a call takes its combiner before it is
// admitted); without it, one per processor.
func idleCombinerSlots(cfg partition.Config) int {
	if cfg.MaxConcurrent > 0 {
		return cfg.MaxConcurrent + max(cfg.QueueDepth, 0)
	}
	return runtime.GOMAXPROCS(0)
}

// getCombiner returns an idle combiner, or a new one when none is idle.
func (w *Worker) getCombiner() *engine.Combiner {
	select {
	case cb := <-w.combiners:
		return cb
	default:
		return new(engine.Combiner)
	}
}

// putCombiner resets cb and keeps it idle, unless the list is full.
func (w *Worker) putCombiner(cb *engine.Combiner) {
	cb.Reset()
	select {
	case w.combiners <- cb:
	default:
	}
}

// servePartial executes one /partial call. On failure it returns the HTTP
// status to send with the error; on success it writes the response itself
// and returns a nil error.
//
// The call is one partition.Set.Partial — one admission ticket and one
// brick pass over every partition it names — into one pooled
// engine.Combiner, so the answer is one left fold over the call's bricks:
// partitions in list order, bricks in brick-id order within each. It is
// encoded in place into a pooled buffer. A call fails whole.
func (w *Worker) servePartial(ctx context.Context, rw http.ResponseWriter, r *http.Request) (int, error) {
	var req partialRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return http.StatusBadRequest, err
	}
	popts := parsePartialOpts(r.Header)
	opts := partition.Opts{Priority: popts.priority, NoCache: popts.noCache}
	// espan is the call's execute span. It carries the scan accounting
	// (bricks visited and pruned, rows scanned, decompressions) plus the
	// engine's own plan/scan/combine stage split, so a slow partial is
	// attributable from the trace alone.
	var espan *trace.Span
	if w.Tracer != nil {
		span := trace.SpanFromContext(ctx)
		span.SetAttr("partitions", strings.Join(req.Partitions, ","))
		// The execute span starts once the call holds its admission slot,
		// so it never counts queueing.
		opts.Admitted = func(queued time.Duration) {
			if w.parts.Admission() != nil {
				attrMS(span, "queue_ms", queued)
			}
			_, espan = w.Tracer.StartSpan(ctx, "worker.execute")
		}
	}
	cb := w.getCombiner()
	defer w.putCombiner(cb)
	info, epochs, err := w.parts.Partial(ctx, req.Partitions, &req.Query, opts, cb)
	if err != nil {
		espan.EndErr(err)
		var notAdmitted *partition.AdmissionError
		switch {
		case errors.Is(err, partition.ErrNoPartition):
			return http.StatusNotFound, err
		case errors.Is(err, admission.ErrQueueFull):
			// 429 is classified retryable by the coordinator's resilience
			// policy, so shed queries retry or fail over.
			return http.StatusTooManyRequests, err
		case errors.As(err, &notAdmitted):
			return http.StatusServiceUnavailable, err
		}
		return http.StatusBadRequest, err
	}
	// Per-request cache bypass neither consults nor fills the
	// decoded-column cache.
	if popts.noCache {
		espan.SetAttr("cache.bypass", "true")
	}
	attrMS(espan, "plan_ms", info.Plan)
	attrMS(espan, "scan_ms", info.Scan)
	attrMS(espan, "combine_ms", info.Combine)
	espan.SetAttrInt("rows_scanned", info.RowsScanned)
	espan.SetAttrInt("bricks_visited", info.BricksVisited)
	espan.SetAttrInt("bricks_pruned", info.BricksPruned)
	espan.SetAttrInt("bricks_stats_pruned", info.BricksStatsPruned)
	espan.SetAttrInt("runs_skipped", info.RunsSkipped)
	espan.SetAttrInt("codes_skipped", info.CodesSkipped)
	espan.SetAttrInt("decompressions", info.Decompressions)
	espan.End()
	w.observe("worker.execute.latency", info.Total())
	w.countAdd("worker.rows.scanned", info.RowsScanned)

	_, mspan := w.Tracer.StartSpan(ctx, "worker.marshal")
	buf := wireBufPool.Get().(*[]byte)
	blob := cb.AppendBinary(&req.Query, (*buf)[:0])
	mspan.SetAttrInt("bytes", int64(len(blob)))
	mspan.End()
	rw.Header().Set(HeaderEpoch, formatEpochs(epochs))
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	if _, err := rw.Write(blob); err != nil {
		// The response is already committed; all we can do is log the
		// broken pipe rather than silently truncate the partial.
		log.Printf("netexec: partial response for %v aborted: %v", req.Partitions, err)
	}
	// Write has copied the blob out, so the buffer is free for the next
	// call.
	*buf = blob
	wireBufPool.Put(buf)
	return 0, nil
}

// Target is one partition placement: which worker URL serves it, plus any
// replica URLs holding the same partition. Replicas are what retries,
// hedges and breaker-driven failover route to when the primary is slow or
// down — the paper's reliability wall falls exactly as fast as a query's
// ability to dodge a single bad host.
type Target struct {
	URL       string
	Partition string
	// Replicas are alternate worker URLs serving the same partition's
	// data; attempts rotate primary-then-replicas.
	Replicas []string
	// Dual, when non-empty, is the partition's previous placement during
	// a migration's dual-read window: the coordinator queries both
	// placements and keeps the answer with the higher ingest epoch, so a
	// query racing the ownership flip never sees a hole (the old owner
	// still holds the data, the new owner may be one propagation hop
	// ahead).
	Dual []string
}

// urls returns the primary followed by the replicas.
func (t Target) urls() []string {
	if len(t.Replicas) == 0 {
		return []string{t.URL}
	}
	out := make([]string, 0, 1+len(t.Replicas))
	out = append(out, t.URL)
	return append(out, t.Replicas...)
}

// ErrWorkerFailed wraps per-worker HTTP failures.
var ErrWorkerFailed = errors.New("netexec: worker request failed")

// idleConnsPerHost is how many keep-alive connections the coordinator
// keeps per worker host. A query holds one connection per host (plus
// hedges, and a second during a dual-read window) and every connection over
// the idle cap is closed on return and re-dialled by the next query, so the
// cap must cover concurrent queries, not the worker count. Idle
// connections cost a few KB each and lapse after IdleConnTimeout.
const idleConnsPerHost = 256

// NewTransport returns an http.Transport tuned for coordinator fan-out:
// keep-alives with an idle pool deep enough that steady-state
// scatter-gather reuses connections instead of paying a dial + TCP
// handshake per partial.
func NewTransport() *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = idleConnsPerHost
	tr.MaxIdleConns = 0 // bounded per host only
	tr.IdleConnTimeout = 90 * time.Second
	return tr
}

// NewCoordinator returns a coordinator with a pooled transport.
func NewCoordinator() *Coordinator {
	return &Coordinator{Client: &http.Client{Transport: NewTransport()}}
}

// DefaultMaxPartialBytes bounds how much of a worker's partial response
// the coordinator will read. A corrupt or malicious worker must not be
// able to OOM the coordinator through an unbounded io.ReadAll.
const DefaultMaxPartialBytes = 256 << 20

// Coordinator fans queries out to workers and merges their partials. The
// zero value reproduces the exact fail-fast baseline; Policy, Breakers and
// Metrics opt into the resilience layer. A Coordinator is intended to be
// long-lived and shared across queries: the breaker group and the hedge
// latency tracker accumulate cross-query state.
type Coordinator struct {
	// Client is the HTTP client used for worker calls; http.DefaultClient
	// when nil.
	Client *http.Client
	// Policy configures retries, hedging, per-try deadlines and graceful
	// degradation. The zero value means one attempt, no hedge, exact
	// semantics.
	Policy QueryPolicy
	// Breakers, when set, short-circuits requests to hosts that keep
	// failing so a dead worker is skipped to its replica immediately
	// instead of burning a timeout per query.
	Breakers *BreakerGroup
	// Metrics, when set, receives retry/hedge/degradation counters plus
	// query/merge latency histograms.
	Metrics *metrics.Registry
	// Tracer, when set, records per-query spans: the fan-out, each
	// partition's attempts (retries, hedges, breaker-driven failover) and
	// the finalize, with trace context propagated to workers in HTTP
	// headers. Nil disables tracing at the cost of one nil check.
	Tracer *trace.Tracer
	// MaxPartialBytes bounds each worker response read; 0 means
	// DefaultMaxPartialBytes, negative disables the bound.
	MaxPartialBytes int64
	// Admission, when set, gates whole queries before fan-out: a
	// concurrency cap and a bounded priority queue, with queue time
	// recorded on the fan-out span and the query.queue_ms histogram, and
	// ErrQueueFull shedding when the queue is at capacity. Priority comes
	// from admission.WithMeta on the request context. Nil admits
	// everything.
	Admission *admission.Controller
	// ResultCache, when set, remembers finished full-coverage Results keyed
	// on the complete query identity (fold key + residue + partition set)
	// and validated against the per-partition ingest epochs workers report
	// in X-Cubrick-Epoch response headers. A hit answers with zero fan-out;
	// any partition whose epoch advanced invalidates exactly. Requests can
	// opt out with WithCacheBypass (the X-Cubrick-Cache: off path).
	ResultCache *rescache.Cache

	// epochMu guards epochs: the latest ingest epoch learned per partition
	// (from /partial responses and, via ObserveEpoch, from ingest
	// responses). Values only grow.
	epochMu sync.Mutex
	epochs  map[string]uint64

	// latMu guards lat, the observed partial-fetch latency distribution
	// behind quantile-based hedge delays.
	latMu sync.Mutex
	lat   *metrics.Histogram
}

// ObserveEpoch records a partition's ingest epoch (from a worker response
// header) into the coordinator's freshness view. Epochs are monotonic;
// stale observations — a lagging replica, a reordered response — are
// ignored rather than rolling the view back.
func (c *Coordinator) ObserveEpoch(partition string, epoch uint64) {
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	if c.epochs == nil {
		c.epochs = make(map[string]uint64)
	}
	if epoch > c.epochs[partition] {
		c.epochs[partition] = epoch
	}
}

// KnownEpoch returns the latest ingest epoch the coordinator has learned
// for a partition, with ok=false before any response has reported one. It
// is the validation source for ResultCache lookups.
func (c *Coordinator) KnownEpoch(partition string) (uint64, bool) {
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	e, ok := c.epochs[partition]
	return e, ok
}

// cacheBypassCtxKey marks a request context as cache-bypassed.
type cacheBypassCtxKey struct{}

// WithCacheBypass marks the context so the query skips the coordinator's
// result cache and carries X-Cubrick-Cache: off to workers, which then
// bypass their decoded-column caches too — a fully recomputed answer.
func WithCacheBypass(ctx context.Context) context.Context {
	return context.WithValue(ctx, cacheBypassCtxKey{}, true)
}

// CacheBypassed reports whether the context carries the bypass mark.
func CacheBypassed(ctx context.Context) bool {
	v, _ := ctx.Value(cacheBypassCtxKey{}).(bool)
	return v
}

func (c *Coordinator) client() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return http.DefaultClient
}

func (c *Coordinator) count(name string) {
	if c.Metrics != nil {
		c.Metrics.Counter(name).Inc()
	}
}

func (c *Coordinator) countAdd(name string, delta int64) {
	if c.Metrics != nil {
		c.Metrics.Counter(name).Add(delta)
	}
}

func (c *Coordinator) maxPartialBytes() int64 {
	switch {
	case c.MaxPartialBytes < 0:
		return int64(1) << 62 // effectively unbounded
	case c.MaxPartialBytes == 0:
		return DefaultMaxPartialBytes
	default:
		return c.MaxPartialBytes
	}
}

// observeLatency feeds a successful fetch latency into the hedge tracker.
func (c *Coordinator) observeLatency(d time.Duration) {
	c.latMu.Lock()
	if c.lat == nil {
		c.lat = metrics.NewLatencyHistogram()
	}
	h := c.lat
	c.latMu.Unlock()
	h.Observe(d.Seconds())
}

// hedgeDelay returns how long an attempt may stay outstanding before a
// hedge fires: the policy quantile of observed fetch latencies, clamped to
// [HedgeMinDelay, HedgeMaxDelay], or HedgeMinDelay until enough samples
// exist. 0 means hedging is disabled.
func (c *Coordinator) hedgeDelay() time.Duration {
	p := c.Policy
	if p.HedgeQuantile <= 0 {
		return 0
	}
	minD := p.HedgeMinDelay
	if minD <= 0 {
		minD = DefaultHedgeMinDelay
	}
	maxD := p.HedgeMaxDelay
	if maxD <= 0 {
		maxD = DefaultHedgeMaxDelay
	}
	c.latMu.Lock()
	h := c.lat
	c.latMu.Unlock()
	if h == nil || h.Count() < hedgeWarmupSamples {
		return minD
	}
	d := time.Duration(h.Quantile(p.HedgeQuantile) * float64(time.Second))
	if d < minD {
		d = minD
	}
	if d > maxD {
		d = maxD
	}
	return d
}

// Query executes q over all targets in parallel and returns the merged,
// finalized result.
//
// The merge is streaming: each worker's wire partial folds into the
// accumulator the moment it arrives (engine.MergeWire, no intermediate
// Partial), overlapping coordinator-side merge work with the slower
// workers' network time instead of idling at a barrier. Accumulator merge
// is commutative — sums, counts, min/max and HLL register maxima are
// order-independent — so results are bit-identical regardless of arrival
// order.
//
// The fan-out makes one worker call per placement, not per partition:
// targets whose primary and replicas are the same share a call, and the
// worker merges their partials before replying, so a query's calls — and
// its exposure to the scalability wall, (1−p)^calls — scale with hosts.
//
// Failure semantics follow c.Policy. Under exact semantics (MinCoverage 0
// or 1, the default and the paper's §II-C posture) any call that fails —
// after the policy's retries, hedges and breaker-driven failover — fails
// the query with an error wrapping ErrWorkerFailed, and the first failure
// cancels the in-flight peers (fail fast). Under a degradation policy
// (0 < MinCoverage < 1) the partitions of an unreachable call are dropped
// instead: if the merged fraction of partitions stays >= MinCoverage the
// result is returned annotated with Coverage and MissingPartitions,
// otherwise the query fails. Merge errors (corrupt partials) are always
// terminal.
func (c *Coordinator) Query(ctx context.Context, targets []Target, q *engine.Query) (*engine.Result, error) {
	if len(targets) == 0 {
		return nil, errors.New("netexec: no targets")
	}
	var qstart time.Time
	if c.Metrics != nil {
		qstart = time.Now()
	}
	meta := admission.MetaFrom(ctx)
	var queued time.Duration
	if c.Admission != nil {
		tkt, err := c.Admission.Admit(ctx, meta.Priority)
		if err != nil {
			if errors.Is(err, admission.ErrQueueFull) {
				c.count("netexec.query.shed")
			}
			return nil, err
		}
		defer tkt.Release()
		queued = tkt.Queued
	}
	ctx, fanSpan := c.Tracer.StartSpan(ctx, "coordinator.fanout")
	fanSpan.SetAttrInt("targets", int64(len(targets)))
	if c.Admission != nil {
		attrMS(fanSpan, "queue_ms", queued)
	}
	bypass := CacheBypassed(ctx)
	var key rescache.Key
	if c.ResultCache != nil && !bypass {
		key = rescache.KeyFor(targetsKey(targets), q)
		if res, ok := c.ResultCache.Get(key, c.KnownEpoch); ok {
			// Zero fan-out: the finished result replays straight from the
			// cache, every contributing partition provably at the epoch the
			// entry was computed at.
			fanSpan.SetAttr("cache.hit", "true")
			fanSpan.SetAttr("cache.level", "result")
			fanSpan.End()
			c.count("netexec.query.cached")
			if c.Metrics != nil {
				c.Metrics.Histogram("netexec.query.latency").Observe(time.Since(qstart).Seconds())
			}
			return res, nil
		}
		fanSpan.SetAttr("cache.hit", "false")
	}
	// Every target's full partial folds into one accumulator the moment it
	// arrives; Finalize then applies HAVING, sorts and limits. gather calls
	// the sink on its own goroutine only, so once it returns nothing else
	// touches the accumulator and it goes back to the pool, buffers and
	// all, whether the query answered or failed.
	opts := partialOpts{priority: meta.Priority, noCache: bypass}
	merged := engine.NewPartial(q)
	defer merged.Release()
	epochs, missing, err := c.gather(ctx, q, targets, opts, func(blob []byte) error {
		var mstart time.Time
		if c.Metrics != nil {
			mstart = time.Now()
		}
		if err := engine.MergeWire(merged, blob); err != nil {
			return err
		}
		if c.Metrics != nil {
			c.Metrics.Histogram("netexec.merge.latency").Observe(time.Since(mstart).Seconds())
		}
		return nil
	})
	var res *engine.Result
	if err == nil {
		_, finSpan := c.Tracer.StartSpan(ctx, "coordinator.finalize")
		res = merged.Finalize()
		finSpan.End()
		if len(missing) > 0 {
			res.Coverage = float64(len(targets)-len(missing)) / float64(len(targets))
			res.MissingPartitions = missing
		}
		if c.ResultCache != nil && !bypass && epochs != nil {
			// Only full-epoch-vector, full-coverage results are cacheable
			// (Put re-checks Coverage); epochs is nil whenever any partial
			// arrived without an epoch header or a partition was dropped.
			c.ResultCache.Put(key, res, epochs)
		}
	}
	fanSpan.EndErr(err)
	if c.Metrics != nil {
		c.Metrics.Histogram("netexec.query.latency").Observe(time.Since(qstart).Seconds())
	}
	return res, err
}

// targetsKey canonically names the partition set a query fanned out over,
// scoping result-cache keys: the same CQL against a different table (or a
// repartitioned one) must never share an entry.
func targetsKey(targets []Target) string {
	parts := make([]string, len(targets))
	for i, t := range targets {
		parts[i] = t.Partition
	}
	sort.Strings(parts)
	return strings.Join(parts, "\x1f")
}

// call is one /partial request of a query: every target that shares one
// placement, answered by one worker call. The call, not the partition, is
// the unit of retry, hedge, breaker report and degradation.
type call struct {
	parts []string // the targets' partition names, in target order
	urls  []string // the shared placement: primary, then replicas
	// dual is the previous placement while a dual-read window is open. A
	// target inside one always gets a call of its own, so the fresher-epoch
	// rule stays per partition.
	dual []string
	body []byte // the marshalled request
}

// planCalls groups targets into calls: targets with an identical placement
// (urls: primary, then replicas) share one, in order of first appearance.
func planCalls(targets []Target, query json.RawMessage) ([]call, error) {
	calls := make([]call, 0, len(targets))
	byPlacement := make(map[string]int, len(targets))
	for _, t := range targets {
		urls := t.urls()
		if len(t.Dual) == 0 {
			key := strings.Join(urls, "\x00")
			if ci, ok := byPlacement[key]; ok {
				calls[ci].parts = append(calls[ci].parts, t.Partition)
				continue
			}
			byPlacement[key] = len(calls)
		}
		calls = append(calls, call{parts: []string{t.Partition}, urls: urls, dual: t.Dual})
	}
	for i := range calls {
		body, err := partialBody(calls[i].parts, query)
		if err != nil {
			return nil, err
		}
		calls[i].body = body
	}
	return calls, nil
}

// gather is the coordinator's one fan-out. It makes one call per placement
// (planCalls) under opts concurrently (fetchCall, under one "call" span per
// call whose children are the individual attempts, so a retry or hedge
// shows up as an extra fetch span under it) and hands each blob to sink on
// the calling goroutine, in arrival order: sink is where Query merges, and
// it overlaps the slower workers' network time.
//
// Failure follows c.Policy as Query documents: the first failed call of
// an exact fan-out cancels the in-flight peers; a degrading one returns
// every partition of a failed call as missing (sorted). A sink error is
// always terminal: the accumulator may have absorbed a prefix of a corrupt
// partial, so its state can no longer be trusted.
//
// epochs is the ingest-epoch vector the answers were computed at, one
// entry per partition, each also fed to ObserveEpoch. It is nil unless
// every call answered with one epoch per partition it named.
func (c *Coordinator) gather(ctx context.Context, q *engine.Query, targets []Target, opts partialOpts, sink func(blob []byte) error) (epochs map[string]uint64, missing []string, err error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		idx  int
		blob *bytes.Buffer
		meta partialMeta
		err  error
	}
	// One marshalled query serves every call's request body.
	query, err := json.Marshal(q)
	if err != nil {
		return nil, nil, err
	}
	calls, err := planCalls(targets, query)
	if err != nil {
		return nil, nil, err
	}
	// Buffered to the fan-out so late finishers never block: gather may
	// return on the first error while peers are still draining.
	ch := make(chan outcome, len(calls))
	for i := range calls {
		go func(i int) {
			cctx, cspan := c.Tracer.StartSpan(ctx, "call")
			if cspan != nil {
				cspan.SetAttr("partitions", strings.Join(calls[i].parts, ","))
			}
			blob, meta, err := c.fetchCall(cctx, &calls[i], opts)
			cspan.EndErr(err)
			ch <- outcome{i, blob, meta, err}
		}(i)
	}
	failed := func(cl *call, err error) error {
		c.count("netexec.query.failed")
		return fmt.Errorf("%w: %s %s: %w", ErrWorkerFailed, cl.urls[0], strings.Join(cl.parts, ","), err)
	}
	exact := c.Policy.exact()
	epochs = make(map[string]uint64, len(targets))
	allEpochs := true
	for range calls {
		o := <-ch
		cl := &calls[o.idx]
		if o.err != nil {
			if exact {
				return nil, nil, failed(cl, o.err)
			}
			missing = append(missing, cl.parts...)
			allEpochs = false
			continue
		}
		if len(o.meta.epochs) == len(cl.parts) {
			for k, part := range cl.parts {
				epochs[part] = o.meta.epochs[k]
				c.ObserveEpoch(part, o.meta.epochs[k])
			}
		} else {
			allEpochs = false
		}
		// The sink keeps nothing of the blob, so its buffer is free again.
		err := sink(o.blob.Bytes())
		blobPool.Put(o.blob)
		if err != nil {
			return nil, nil, failed(cl, err)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		coverage := float64(len(targets)-len(missing)) / float64(len(targets))
		if coverage < c.Policy.MinCoverage {
			c.count("netexec.query.failed")
			return nil, nil, fmt.Errorf("%w: coverage %.3f below policy minimum %.3f (missing: %s)",
				ErrWorkerFailed, coverage, c.Policy.MinCoverage, strings.Join(missing, ", "))
		}
		c.count("netexec.query.degraded")
	}
	if !allEpochs {
		epochs = nil
	}
	return epochs, missing, nil
}

// fetchCall fetches one call's merged wire partial under opts, into a
// buffer from blobPool. Outside a migration that is one resilient fetch
// over the call's primary and replicas. During a dual-read window (cl.dual
// is set, and the call holds that one partition) it runs the same request
// against the current and the previous placement concurrently and returns
// the fresher answer with its own epoch: the success with the higher
// ingest epoch wins, a lone success wins regardless, two failures surface
// the current placement's error.
func (c *Coordinator) fetchCall(ctx context.Context, cl *call, opts partialOpts) (*bytes.Buffer, partialMeta, error) {
	if len(cl.dual) == 0 {
		return c.fetchResilient(ctx, cl.urls, cl, opts)
	}
	c.count("netexec.fetch.dualreads")
	type res struct {
		blob *bytes.Buffer
		meta partialMeta
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		b, m, err := c.fetchResilient(ctx, cl.dual, cl, opts)
		ch <- res{b, m, err}
	}()
	cb, cm, cerr := c.fetchResilient(ctx, cl.urls, cl, opts)
	pr := <-ch
	// A strictly fresher old placement means the flip has not fully landed
	// on the new owner yet: its answer is the one without a hole.
	if pr.err == nil && (cerr != nil || pr.meta.epochs != nil && (cm.epochs == nil || pr.meta.epochs[0] > cm.epochs[0])) {
		c.count("netexec.fetch.dual_wins")
		return pr.blob, pr.meta, nil
	}
	return cb, cm, cerr
}

// fetchResilient posts one call's /partial body under the policy's Retry
// loop: attempts rotate over urls (a placement's primary and replicas) by
// attempt index; each attempt may hedge to a replica after the hedge delay;
// breaker-open hosts are skipped.
func (c *Coordinator) fetchResilient(ctx context.Context, urls []string, cl *call, opts partialOpts) (*bytes.Buffer, partialMeta, error) {
	var blob *bytes.Buffer
	var meta partialMeta
	err := c.Policy.Retry(ctx, func() { c.count("netexec.fetch.retries") }, func(ctx context.Context, a int) error {
		start := time.Now()
		b, m, url, err := c.fetchAttempt(ctx, urls, a, cl, opts)
		if err != nil {
			return err
		}
		if c.Breakers != nil {
			c.Breakers.ReportSuccess(url)
		}
		c.observeLatency(time.Since(start))
		blob, meta = b, m
		return nil
	})
	if err != nil {
		return nil, partialMeta{}, err
	}
	return blob, meta, nil
}

// pickURL chooses the attempt's URL: rotate through the candidates
// starting at the attempt index, skipping hosts whose breaker is open. If
// every breaker rejects, the rotation's first choice is forced anyway — a
// probe beats certain failure.
func (c *Coordinator) pickURL(urls []string, attempt int) string {
	n := len(urls)
	for k := 0; k < n; k++ {
		u := urls[(attempt+k)%n]
		if c.Breakers == nil || c.Breakers.Allow(u) {
			if k > 0 {
				c.count("netexec.breaker.skips")
			}
			return u
		}
	}
	c.count("netexec.breaker.forced")
	return urls[attempt%n]
}

// hedgeCandidate returns a replica to hedge to: the next breaker-allowed
// URL after the rotation point that is not the primary, or "".
func (c *Coordinator) hedgeCandidate(urls []string, attempt int, primary string) string {
	n := len(urls)
	for k := 1; k <= n; k++ {
		u := urls[(attempt+k)%n]
		if u == primary {
			continue
		}
		if c.Breakers == nil || c.Breakers.Allow(u) {
			return u
		}
	}
	return ""
}

// fetchAttempt performs one (possibly hedged) attempt: issue the request
// to the rotation's URL, and if it stays outstanding past the hedge delay,
// re-issue it to a replica and take whichever answers first, cancelling
// the loser. Returns the blob and the URL that produced it; on failure the
// error is the last failure observed and url names its host. Per-URL
// failures are reported to the breaker group as they happen.
func (c *Coordinator) fetchAttempt(ctx context.Context, urls []string, attempt int, cl *call, opts partialOpts) (blob *bytes.Buffer, meta partialMeta, url string, err error) {
	primary := c.pickURL(urls, attempt)
	var actx context.Context
	var cancel context.CancelFunc
	if c.Policy.PerTryTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, c.Policy.PerTryTimeout)
	} else {
		actx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	type res struct {
		blob *bytes.Buffer
		meta partialMeta
		url  string
		err  error
	}
	// Buffered to the maximum in-flight count so the losing request's
	// goroutine never blocks after the winner returns.
	ch := make(chan res, 2)
	// Each in-flight request gets its own fetch span (child of the
	// call span carried by ctx/actx): the attrs say which host, which
	// try and whether it was the primary or the hedge, and a losing hedge
	// half ends StatusCanceled when the winner's return cancels actx.
	launch := func(u, role string, breakerSkip bool) {
		go func() {
			fctx, fspan := c.Tracer.StartSpan(actx, "fetch")
			fspan.SetAttr("url", u)
			fspan.SetAttr("role", role)
			fspan.SetAttrInt("try", int64(attempt+1))
			if breakerSkip {
				fspan.SetAttr("breaker_skip", "true")
			}
			b, m, e := c.doPartial(fctx, u, cl, opts)
			fspan.EndErr(e)
			ch <- res{b, m, u, e}
		}()
	}
	launch(primary, "primary", primary != urls[attempt%len(urls)])
	inflight := 1

	var timerC <-chan time.Time
	if len(urls) > 1 {
		// Only a placement with a replica can hedge: an unreplicated fetch
		// never reads the latency quantile.
		if d := c.hedgeDelay(); d > 0 {
			timer := time.NewTimer(d)
			defer timer.Stop()
			timerC = timer.C
		}
	}
	hedged := false
	var lastErr error
	lastURL := primary
	for {
		select {
		case r := <-ch:
			inflight--
			if r.err == nil {
				if hedged && r.url != primary {
					c.count("netexec.fetch.hedge_wins")
				}
				return r.blob, r.meta, r.url, nil
			}
			// Don't poison the breaker when the query itself was abandoned.
			if c.Breakers != nil && !errors.Is(r.err, context.Canceled) {
				c.Breakers.ReportFailure(r.url)
			}
			lastErr, lastURL = r.err, r.url
			if inflight == 0 {
				return nil, partialMeta{}, lastURL, lastErr
			}
		case <-timerC:
			timerC = nil
			if u := c.hedgeCandidate(urls, attempt, primary); u != "" {
				hedged = true
				c.count("netexec.fetch.hedges")
				launch(u, "hedge", false)
				inflight++
			}
		}
	}
}

// blobPool recycles the buffers partial responses are read into. gather
// returns each buffer once its blob is merged; a blob a hedge or a
// dual-read discards is left to the collector instead.
var blobPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// doPartial performs one HTTP /partial call against a worker URL, reading
// the response into a buffer from blobPool with the read bounded by
// MaxPartialBytes.
func (c *Coordinator) doPartial(ctx context.Context, url string, cl *call, opts partialOpts) (*bytes.Buffer, partialMeta, error) {
	var meta partialMeta
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/partial", bytes.NewReader(cl.body))
	if err != nil {
		return nil, meta, err
	}
	req.Header.Set("Content-Type", "application/json")
	// Propagate trace context so the worker's spans join this query's
	// trace (the fetch span in ctx becomes their remote parent).
	trace.Inject(ctx, req.Header)
	opts.stamp(req.Header)
	resp, err := c.client().Do(req)
	if err != nil {
		return nil, meta, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, meta, &HTTPStatusError{Status: resp.StatusCode, Msg: string(bytes.TrimSpace(msg))}
	}
	meta.epochs = epochsFromHeader(resp.Header, len(cl.parts))
	limit := c.maxPartialBytes()
	buf := blobPool.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, limit+1)); err != nil {
		blobPool.Put(buf)
		return nil, meta, err
	}
	if int64(buf.Len()) > limit {
		return nil, meta, &PartialSizeError{Limit: limit} // too big to keep pooled
	}
	return buf, meta, nil
}

// DefaultAdminTimeout bounds admin calls (partition create, ingest) made
// through a Client that did not supply its own http.Client. The old
// fallback was http.DefaultClient, which has no timeout at all — one hung
// worker stalled the load path forever.
const DefaultAdminTimeout = 30 * time.Second

var defaultAdminClient = &http.Client{Timeout: DefaultAdminTimeout}

// Client is a convenience HTTP client for worker admin operations. All
// methods take a context; pass context.Background() when no deadline or
// cancellation applies (the default client still enforces
// DefaultAdminTimeout).
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

func (cl *Client) http() *http.Client {
	if cl.HTTP != nil {
		return cl.HTTP
	}
	return defaultAdminClient
}

func (cl *Client) checkResp(path string, resp *http.Response, err error) error {
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		// Keep the status structured so callers can classify the failure:
		// a fenced partition's 503 is retryable, a schema error's 400 is
		// terminal.
		return fmt.Errorf("%w: %s: %w", ErrWorkerFailed, path,
			&HTTPStatusError{Status: resp.StatusCode, Msg: string(bytes.TrimSpace(msg))})
	}
	return nil
}

// do posts and returns the response headers (valid even on error) so
// callers can read the ingest-epoch header off successful loads.
func (cl *Client) do(ctx context.Context, path, contentType string, body []byte) (http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cl.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := cl.http().Do(req)
	var hdr http.Header
	if resp != nil {
		hdr = resp.Header
	}
	return hdr, cl.checkResp(path, resp, err)
}

func (cl *Client) post(ctx context.Context, path string, v interface{}) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = cl.do(ctx, path, "application/json", body)
	return err
}

// CreatePartition creates a partition on the worker.
func (cl *Client) CreatePartition(ctx context.Context, name string, schema brick.Schema) error {
	return cl.post(ctx, "/partition", struct {
		Name   string     `json:"name"`
		Schema SchemaJSON `json:"schema"`
	}{name, FromSchema(schema)})
}

// Load ingests rows into a partition through the binary columnar batch
// endpoint: one packed blob, one request, one store lock on the worker. It
// returns the partition's post-ingest epoch from the X-Cubrick-Epoch
// response header (0 when the response carried none); a coordinator feeds
// it to ObserveEpoch so cached results over the partition invalidate the
// moment the load commits.
func (cl *Client) Load(ctx context.Context, partition string, dims [][]uint32, metrics [][]float64) (uint64, error) {
	blob, err := EncodeBatch(partition, dims, metrics)
	if err != nil {
		return 0, err
	}
	hdr, err := cl.do(ctx, "/loadbin", "application/octet-stream", blob)
	if err != nil {
		return 0, err
	}
	epoch, _ := epochFromHeader(hdr)
	return epoch, nil
}
