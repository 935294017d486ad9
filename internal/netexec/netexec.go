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
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cubrick/internal/admission"
	"cubrick/internal/brick"
	"cubrick/internal/dict"
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

// DefaultGzipMinBytes is the partial-response size above which workers
// gzip the blob for clients that accept it. Small partials are cheaper to
// send raw than to compress.
const DefaultGzipMinBytes = 16 << 10

// Worker is the HTTP edge of a partition.Set: it serves the set's
// partitions (ingest and partial-query execution) to a remote coordinator.
//
//	POST /partition  {"name": ..., "schema": {...}}     create a partition
//	POST /loadbin    binary columnar batch (see EncodeBatch)
//	POST /partial    {"partition": ..., "query": {...}} execute, returns a
//	                 binary engine partial (application/octet-stream)
//	GET  /health     liveness
//
// plus the migration plane (transfer.go) and the dictionary plane
// (dictsync.go). Serving behaviour — folding, caches, rollups, admission,
// the metrics registry — is the set's partition.Config, fixed by NewWorker;
// the fields below configure the edge only and are set before the first
// request.
//
// With Tracer set, /partial continues the coordinator's trace (trace
// context arrives in X-Cubrick-Trace / X-Cubrick-Span headers) and also
// serves the worker's own ring at GET /debug/trace[/{id}]. With a metrics
// registry configured, request counters and latency histograms accumulate
// and are served in Prometheus text format at GET /metrics.
type Worker struct {
	// GzipMinBytes overrides the partial-response compression threshold:
	// 0 means DefaultGzipMinBytes, negative disables compression.
	GzipMinBytes int
	// Tracer, when set, records worker-side spans (partial handling,
	// execute with scan accounting, marshal) into propagated traces.
	Tracer *trace.Tracer
	// ExportRateBytes throttles /export responses to this many bytes per
	// second (the -migrate-rate-bytes flag); 0 streams at full speed. A
	// paced export bounds the load a live migration puts on the source.
	ExportRateBytes int64
	// DictCapacity is the fallback id capacity for dictionaries created by
	// a pushed delta when the column names no schema dimension (the
	// -dict-capacity flag); 0 leaves only the schema-derived fallback.
	DictCapacity uint32

	parts   *partition.Set
	metrics *metrics.Registry // parts.Config().Metrics

	// fenceMu guards fenced: partitions mid-cutover that reject ingest
	// with a retryable 503 while their migration flips ownership.
	fenceMu sync.Mutex
	fenced  map[string]bool

	// dictMu guards dicts: per-partition global-dictionary sets, synced
	// between nodes as append-only deltas over /dict (see dictsync.go).
	dictMu sync.Mutex
	dicts  map[string]*dict.Set
}

// NewWorker returns an empty worker serving under cfg.
func NewWorker(cfg partition.Config) *Worker {
	return &Worker{parts: partition.New(cfg), metrics: cfg.Metrics}
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
	w.registerDict(mux)
	return mux
}

// attrMS annotates a span with a duration in fractional milliseconds.
func attrMS(s *trace.Span, key string, d time.Duration) {
	if s != nil {
		s.SetAttr(key, strconv.FormatFloat(float64(d)/float64(time.Millisecond), 'f', 3, 64))
	}
}

// gzipBuf recycles a gzip.Writer (~1 MB of deflate state per NewWriter) and
// its output buffer across /partial replies.
type gzipBuf struct {
	buf bytes.Buffer
	zw  *gzip.Writer
}

var gzipPool = sync.Pool{New: func() any {
	// BestSpeed: level-6 deflate was a tenth of worker CPU on the scan and
	// fan-out workloads, and loopback/LAN bytes are cheaper than that. The
	// only error NewWriterLevel has is an invalid level.
	zw, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed)
	return &gzipBuf{zw: zw}
}}

// servePartial executes one partial request. On failure it returns the
// HTTP status to send with the error; on success it writes the response
// itself and returns a nil error.
func (w *Worker) servePartial(ctx context.Context, rw http.ResponseWriter, r *http.Request) (int, error) {
	var req struct {
		partialRequest
		// espan is the request's execute span. It carries the PR 1 scan
		// accounting (bricks visited and pruned, rows scanned,
		// decompressions) plus the engine's own plan/scan/combine stage
		// split, so a slow partial is attributable from the trace alone.
		// The admission hook below starts it; it sits beside the decoded
		// body, which is on the heap already, so an untraced call pays no
		// allocation for it.
		espan *trace.Span
	}
	if err := json.NewDecoder(r.Body).Decode(&req.partialRequest); err != nil {
		return http.StatusBadRequest, err
	}
	trace.SpanFromContext(ctx).SetAttr("partition", req.Partition)
	popts, err := parsePartialOpts(r.Header)
	if err != nil {
		return http.StatusBadRequest, err
	}
	keys, err := req.keys()
	if err != nil {
		return http.StatusBadRequest, err
	}
	opts := partition.Opts{
		Tenant:   popts.tenant,
		Priority: popts.priority,
		Unshared: popts.noFold,
		NoCache:  popts.noCache,
	}
	if w.Tracer != nil {
		// The execute span starts once the request holds its admission
		// slot, so it never counts queueing.
		opts.Admitted = func(queued time.Duration) {
			if w.parts.Admission() != nil {
				attrMS(trace.SpanFromContext(ctx), "queue_ms", queued)
			}
			_, req.espan = w.Tracer.StartSpan(ctx, "worker.execute")
		}
	}
	partial, info, epoch, err := w.parts.Partial(ctx, req.Partition, &req.Query, opts)
	espan := req.espan
	if ri := info.Rollup; ri.Tried {
		switch {
		case ri.Err != nil:
			w.countAdd("worker.rollup.errors", 1)
		case ri.Hit:
			w.countAdd("worker.rollup.hits", 1)
			w.countAdd("worker.rollup.delta_rows", ri.DeltaRows)
			espan.SetAttr("rollup.hit", "true")
			espan.SetAttrInt("rollup.groups", int64(ri.Groups))
			espan.SetAttrInt("rollup.delta_rows", ri.DeltaRows)
			espan.SetAttrInt("rollup.edge_scans", int64(ri.EdgeScans))
			espan.SetAttrInt("rollup.epoch", int64(ri.Epoch))
		default:
			w.countAdd("worker.rollup.misses", 1)
		}
	}
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
	if !info.Rollup.Hit {
		// Raw path: one brick pass. Per-request cache bypass neither
		// consults nor fills the decoded-column cache.
		if popts.noCache {
			espan.SetAttr("cache.bypass", "true")
		}
		espan.SetAttr("folded", strconv.FormatBool(info.Folded))
		espan.SetAttrInt("catchup_bricks", int64(info.CatchupBricks))
	}
	attrMS(espan, "plan_ms", info.Plan)
	attrMS(espan, "scan_ms", info.Scan)
	attrMS(espan, "combine_ms", info.Combine)
	espan.SetAttrInt("rows_scanned", partial.RowsScanned)
	espan.SetAttrInt("bricks_visited", partial.BricksVisited)
	espan.SetAttrInt("bricks_pruned", partial.BricksPruned)
	espan.SetAttrInt("bricks_stats_pruned", info.BricksStatsPruned)
	espan.SetAttrInt("runs_skipped", info.RunsSkipped)
	espan.SetAttrInt("codes_skipped", info.CodesSkipped)
	espan.SetAttrInt("decompressions", partial.Decompressions)
	espan.End()
	w.observe("worker.execute.latency", info.Total())
	w.countAdd("worker.rows.scanned", partial.RowsScanned)

	// Top-k pushdown. Phase 2 (keys) subsets the full partial to the
	// coordinator's uncertain keys; phase 1 (kPrime) prunes to the local
	// top k′ and reports the threshold bounding unsent groups.
	meta := partialMeta{epoch: epoch, hasEpoch: true}
	if keys != nil {
		partial.Subset(keys)
		w.countAdd("worker.topk.phase2", 1)
	} else if popts.kPrime > 0 {
		if _, ok := engine.TopKSpecFor(&req.Query); ok {
			before := partial.GroupCount()
			meta.threshold, meta.complete = engine.PruneTopK(partial, popts.kPrime)
			if !meta.complete {
				meta.hasThreshold = true
				meta.dropped = before - partial.GroupCount()
				w.countAdd("worker.topk.pruned", 1)
				w.countAdd("worker.topk.groups_dropped", int64(meta.dropped))
			}
		}
	}

	_, mspan := w.Tracer.StartSpan(ctx, "worker.marshal")
	blob, err := partial.MarshalBinary()
	if err != nil {
		mspan.EndErr(err)
		return http.StatusInternalServerError, err
	}
	payload := blob
	gzMin := w.GzipMinBytes
	if gzMin == 0 {
		gzMin = DefaultGzipMinBytes
	}
	gzipped := false
	if gzMin > 0 && len(blob) >= gzMin && strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
		// Held until the payload is written: it aliases the pooled buffer.
		gz := gzipPool.Get().(*gzipBuf)
		defer gzipPool.Put(gz)
		gz.buf.Reset()
		gz.zw.Reset(&gz.buf)
		if _, err := gz.zw.Write(blob); err == nil && gz.zw.Close() == nil {
			payload = gz.buf.Bytes()
			rw.Header().Set("Content-Encoding", "gzip")
			gzipped = true
		}
	}
	mspan.SetAttrInt("bytes", int64(len(payload)))
	mspan.SetAttr("gzip", strconv.FormatBool(gzipped))
	mspan.End()
	meta.stamp(rw.Header())
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Header().Set("Content-Length", strconv.Itoa(len(payload)))
	if _, err := rw.Write(payload); err != nil {
		// The response is already committed; all we can do is log the
		// broken pipe rather than silently truncate the partial.
		log.Printf("netexec: partial response for %q aborted: %v", req.Partition, err)
	}
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
// keeps per worker host. A query holds one connection per partition on the
// host (plus hedges) and every connection over the idle cap is closed on
// return and re-dialled by the next query, so the cap must cover
// partitions-per-host × concurrent queries, not the worker count. Idle
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
	// Admission, when set, gates whole queries before fan-out: per-tenant
	// quotas and a bounded priority queue, with queue time recorded on
	// the fan-out span and the query.queue_ms histogram, and
	// ErrQueueFull shedding when the queue is at capacity. Tenant and
	// priority come from admission.WithMeta on the request context. Nil
	// admits everything.
	Admission *admission.Controller
	// NoFold stamps X-Cubrick-Fold: off on worker requests, bypassing
	// worker-side shared-scan folding for queries from this coordinator.
	NoFold bool
	// TopKOverfetch enables distributed top-k pushdown for eligible
	// ORDER BY <aggregate> LIMIT k queries (the -topk-overfetch flag):
	// workers ship only their local top overfetch×k groups plus a
	// threshold bounding the rest, and the coordinator certifies the
	// global top k from the bounds, issuing at most one targeted
	// second-phase fetch for uncertain keys before falling back to full
	// partials. 0 disables pushdown. Only exact-semantics queries
	// (MinCoverage 0 or 1) push down.
	TopKOverfetch int
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
// bypass their rollup tables and decoded-column caches too — a fully
// recomputed answer.
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
// Failure semantics follow c.Policy. Under exact semantics (MinCoverage 0
// or 1, the default and the paper's §II-C posture) any partition whose
// fetch fails — after the policy's retries, hedges and breaker-driven
// failover — fails the query with an error wrapping ErrWorkerFailed, and
// the first failure cancels the in-flight peers (fail fast). Under a
// degradation policy (0 < MinCoverage < 1) unreachable partitions are
// dropped instead: if the merged fraction stays >= MinCoverage the result
// is returned annotated with Coverage and MissingPartitions, otherwise the
// query fails. Merge errors (corrupt partials) are always terminal.
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
		tkt, err := c.Admission.Admit(ctx, meta.Tenant, meta.Priority)
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
		key = rescache.Key{
			Table:   targetsKey(targets),
			FoldKey: engine.FoldKey(q),
			Residue: engine.ResidueKey(q),
		}
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
	// What every /partial call of this query carries; the top-k strategy
	// adds its fields per call.
	base := partialOpts{tenant: meta.Tenant, priority: meta.Priority, noFold: c.NoFold, noCache: bypass}
	strategy := c.queryPlain
	if c.topkEligible(q) {
		strategy = c.queryTopK
	}
	res, epochs, err := strategy(ctx, targets, q, base)
	if err == nil && c.ResultCache != nil && !bypass && epochs != nil {
		// Only full-epoch-vector, full-coverage results are cacheable (Put
		// re-checks Coverage); epochs is nil whenever any partial arrived
		// without an epoch header, a partition was dropped, or a top-k
		// second phase mixed per-partition epochs.
		c.ResultCache.Put(key, res, epochs)
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

// queryPlain is the plain strategy: every target's full partial folds
// into one accumulator the moment it arrives. The second return value is
// the ingest-epoch vector the result was computed at (see gather), which is
// what makes the result eligible for the coordinator's cache.
func (c *Coordinator) queryPlain(ctx context.Context, targets []Target, q *engine.Query, base partialOpts) (*engine.Result, map[string]uint64, error) {
	calls := make([]call, len(targets))
	for i, t := range targets {
		calls[i] = call{t, base}
	}
	merged := engine.NewPartial(q)
	epochs, missing, err := c.gather(ctx, q, calls, func(_ int, blob []byte, _ partialMeta) error {
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
	if err != nil {
		return nil, nil, err
	}
	_, finSpan := c.Tracer.StartSpan(ctx, "coordinator.finalize")
	res := merged.Finalize()
	finSpan.End()
	if len(missing) > 0 {
		res.Coverage = float64(len(targets)-len(missing)) / float64(len(targets))
		res.MissingPartitions = missing
	}
	return res, epochs, nil
}

// call is one unit of a fan-out: a target and the options of its /partial
// request.
type call struct {
	target Target
	opts   partialOpts
}

// gather is the coordinator's one fan-out. It fetches every call
// concurrently (fetchPartition, under one "partition" span per call whose
// children are the individual attempts, so a retry or hedge shows up as an
// extra fetch span under it) and hands each answer to sink on the calling
// goroutine, in arrival order: sink is where a strategy merges, and it
// overlaps the slower workers' network time.
//
// Failure follows c.Policy as Query documents: the first failed call of
// an exact fan-out cancels the in-flight peers; a degrading one returns
// the dropped partitions as missing (sorted). A sink error is always
// terminal: the strategy's accumulator may have absorbed a prefix of a
// corrupt partial, so its state can no longer be trusted.
//
// epochs is the ingest-epoch vector the answers were computed at, one
// entry per partition, each also fed to ObserveEpoch. It is nil unless
// every call answered and every answer carried an epoch header.
func (c *Coordinator) gather(ctx context.Context, q *engine.Query, calls []call, sink func(i int, blob []byte, meta partialMeta) error) (epochs map[string]uint64, missing []string, err error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		idx  int
		blob []byte
		meta partialMeta
		err  error
	}
	// Buffered to the fan-out so late finishers never block: gather may
	// return on the first error while peers are still draining.
	ch := make(chan outcome, len(calls))
	for i := range calls {
		go func(i int) {
			cl := &calls[i]
			pctx, pspan := c.Tracer.StartSpan(ctx, "partition")
			pspan.SetAttr("partition", cl.target.Partition)
			switch {
			case len(cl.opts.keys) > 0:
				pspan.SetAttr("topk", "phase2")
				pspan.SetAttrInt("keys", int64(len(cl.opts.keys)))
			case cl.opts.kPrime > 0:
				pspan.SetAttr("topk", "phase1")
			}
			blob, meta, err := c.fetchPartition(pctx, cl.target, q, cl.opts)
			pspan.EndErr(err)
			ch <- outcome{i, blob, meta, err}
		}(i)
	}
	failed := func(t Target, err error) error {
		c.count("netexec.query.failed")
		return fmt.Errorf("%w: %s %s: %w", ErrWorkerFailed, t.URL, t.Partition, err)
	}
	exact := c.Policy.exact()
	epochs = make(map[string]uint64, len(calls))
	allEpochs := true
	for range calls {
		o := <-ch
		t := calls[o.idx].target
		if o.err != nil {
			if exact {
				return nil, nil, failed(t, o.err)
			}
			missing = append(missing, t.Partition)
			allEpochs = false
			continue
		}
		if o.meta.hasEpoch {
			epochs[t.Partition] = o.meta.epoch
			c.ObserveEpoch(t.Partition, o.meta.epoch)
		} else {
			allEpochs = false
		}
		if err := sink(o.idx, o.blob, o.meta); err != nil {
			return nil, nil, failed(t, err)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		coverage := float64(len(calls)-len(missing)) / float64(len(calls))
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

// fetchPartition fetches one partition's wire partial under opts. Outside
// a migration that is one resilient fetch over the target's primary and
// replicas. During a dual-read window (t.Dual is set) it runs the same
// request against the current and the previous placement concurrently and
// returns the fresher answer with its own metadata: the success with the
// higher ingest epoch wins, a lone success wins regardless, two failures
// surface the current placement's error.
func (c *Coordinator) fetchPartition(ctx context.Context, t Target, q *engine.Query, opts partialOpts) ([]byte, partialMeta, error) {
	body, err := json.Marshal(newPartialRequest(t.Partition, q, opts))
	if err != nil {
		return nil, partialMeta{}, err
	}
	if len(t.Dual) == 0 {
		return c.fetchResilient(ctx, t.urls(), body, opts)
	}
	c.count("netexec.fetch.dualreads")
	type res struct {
		blob []byte
		meta partialMeta
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		b, m, err := c.fetchResilient(ctx, t.Dual, body, opts)
		ch <- res{b, m, err}
	}()
	cb, cm, cerr := c.fetchResilient(ctx, t.urls(), body, opts)
	pr := <-ch
	// A strictly fresher old placement means the flip has not fully landed
	// on the new owner yet: its answer is the one without a hole.
	if pr.err == nil && (cerr != nil || pr.meta.hasEpoch && (!cm.hasEpoch || pr.meta.epoch > cm.epoch)) {
		c.count("netexec.fetch.dual_wins")
		return pr.blob, pr.meta, nil
	}
	return cb, cm, cerr
}

// fetchResilient posts one /partial body under the policy: attempts
// rotate over urls (a placement's primary and replicas) with capped,
// jittered exponential backoff between retries; each attempt may hedge to
// a replica after the hedge delay; breaker-open hosts are skipped. Errors
// classify as retryable or terminal (ClassifyError); terminal errors and
// query-context expiry end the loop immediately.
func (c *Coordinator) fetchResilient(ctx context.Context, urls []string, body []byte, opts partialOpts) ([]byte, partialMeta, error) {
	attempts := c.Policy.attempts()
	var lastErr error
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			return nil, partialMeta{}, lastErr
		}
		start := time.Now()
		blob, meta, url, err := c.fetchAttempt(ctx, urls, a, body, opts)
		if err == nil {
			if c.Breakers != nil {
				c.Breakers.ReportSuccess(url)
			}
			c.observeLatency(time.Since(start))
			return blob, meta, nil
		}
		lastErr = err
		if ClassifyError(err) == Terminal || ctx.Err() != nil {
			return nil, partialMeta{}, lastErr
		}
		if a < attempts-1 {
			c.count("netexec.fetch.retries")
			if serr := sleepCtx(ctx, jitter(c.Policy.backoffFor(a))); serr != nil {
				return nil, partialMeta{}, lastErr
			}
		}
	}
	return nil, partialMeta{}, lastErr
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
func (c *Coordinator) fetchAttempt(ctx context.Context, urls []string, attempt int, body []byte, opts partialOpts) (blob []byte, meta partialMeta, url string, err error) {
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
		blob []byte
		meta partialMeta
		url  string
		err  error
	}
	// Buffered to the maximum in-flight count so the losing request's
	// goroutine never blocks after the winner returns.
	ch := make(chan res, 2)
	// Each in-flight request gets its own fetch span (child of the
	// partition span carried by ctx/actx): the attrs say which host, which
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
			b, m, e := c.doPartial(fctx, u, body, opts)
			fspan.EndErr(e)
			ch <- res{b, m, u, e}
		}()
	}
	launch(primary, "primary", primary != urls[attempt%len(urls)])
	inflight := 1

	var timerC <-chan time.Time
	if d := c.hedgeDelay(); d > 0 && len(urls) > 1 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		timerC = timer.C
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

// doPartial performs one HTTP partial fetch against a worker URL with the
// response read bounded by MaxPartialBytes. The transport advertises gzip
// and transparently decompresses, so large partials cross the wire
// compressed without any handling here.
func (c *Coordinator) doPartial(ctx context.Context, url string, body []byte, opts partialOpts) ([]byte, partialMeta, error) {
	var meta partialMeta
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/partial", bytes.NewReader(body))
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
	meta = parsePartialMeta(resp.Header)
	limit := c.maxPartialBytes()
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, meta, err
	}
	if int64(len(data)) > limit {
		return nil, meta, &PartialSizeError{Limit: limit}
	}
	return data, meta, nil
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
