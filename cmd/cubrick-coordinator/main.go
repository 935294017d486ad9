// Command cubrick-coordinator fronts a set of cubrick-worker processes: it
// owns the table catalog, routes loads by the partial-sharding layout, and
// serves CQL queries by scatter-gathering binary partials over HTTP.
//
//	cubrick-worker -addr :9001 & cubrick-worker -addr :9002 &
//	cubrick-coordinator -addr :8080 -workers http://localhost:9001,http://localhost:9002
//
// API:
//
//	POST /tables {"name":..., "partitions":8, "schema":{...}}
//	POST /load   {"table":..., "rows":[...]}
//	POST /query  {"cql": "SELECT ..."}
//	POST /move   {"table":..., "partition":0, "target":"http://..."}
//	GET  /move?table=...&partition=0   observe a migration checkpoint
//	GET  /tables
//	GET  /health
//	GET  /metrics Prometheus text format: counters (retries, hedges,
//	              breaker trips, ...) plus query, merge and fetch latency
//	              histograms (p50/p95/p99/p999)
//	GET  /debug/trace[/{id}]  the bounded in-memory trace ring
//
// Every query runs under a root trace span whose ID is returned in the
// X-Cubrick-Trace response header and propagated to workers; queries
// slower than 500 ms log a one-line per-stage breakdown. -pprof mounts
// net/http/pprof under /debug/pprof/.
//
// Fan-out runs under netexec.DefaultQueryPolicy and DefaultBreakerConfig;
// -retries, -hedge-quantile and -min-coverage override the policy fields
// a fan-out sweep varies. POST /move runs under migrate.Config's defaults:
// a source stays fenced for at most 2 s, and for 2 s after the ownership
// flip queries read both placements and keep the fresher answer.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"cubrick/internal/admission"
	"cubrick/internal/core"
	"cubrick/internal/cql"
	"cubrick/internal/engine"
	"cubrick/internal/metrics"
	"cubrick/internal/migrate"
	"cubrick/internal/netexec"
	"cubrick/internal/rescache"
	"cubrick/internal/trace"
	"cubrick/internal/zk"
)

// options is the parsed command line.
type options struct {
	addr, workers               string
	maxShards, resultCacheBytes int64
	deadline                    time.Duration
	replication, maxConcurrent  int
	enableMetrics, enablePprof  bool
	// policy starts as netexec.DefaultQueryPolicy; a flag overrides a field.
	policy netexec.QueryPolicy
}

// registerFlags declares the coordinator's flags on fs. README's table
// lists each with its default (TestFlags).
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{policy: netexec.DefaultQueryPolicy()}
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.workers, "workers", "", "comma-separated worker base URLs")
	fs.Int64Var(&o.maxShards, "max-shards", 100000, "shard key space size")
	fs.DurationVar(&o.deadline, "deadline", 30*time.Second, "per-query deadline")
	fs.IntVar(&o.policy.MaxAttempts, "retries", o.policy.MaxAttempts, "attempts per partition (1 disables retries)")
	fs.Float64Var(&o.policy.HedgeQuantile, "hedge-quantile", o.policy.HedgeQuantile, "latency quantile before hedging to a replica (0 disables)")
	fs.Float64Var(&o.policy.MinCoverage, "min-coverage", o.policy.MinCoverage, "minimum partition fraction for a degraded result (1 = exact)")
	fs.IntVar(&o.replication, "replication", 0, "replica copies per partition beyond the primary")
	fs.BoolVar(&o.enableMetrics, "metrics", true, "serve Prometheus text format on /metrics")
	fs.BoolVar(&o.enablePprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	fs.IntVar(&o.maxConcurrent, "max-concurrent-queries", 0, "cap on concurrently executing queries; excess queries queue (0 disables admission control)")
	fs.String("fold", "on", "ignored; shared-scan folding was removed")
	fs.Int64Var(&o.resultCacheBytes, "result-cache-bytes", 0, "byte budget for the finished-result cache with ingest-epoch invalidation (0 disables)")
	fs.IntVar(new(int), "topk-overfetch", 0, "ignored; top-k pushdown was removed")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	var clean []string
	for _, u := range strings.Split(o.workers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			clean = append(clean, u)
		}
	}
	cluster, err := netexec.NewCluster(clean, o.maxShards, &http.Client{
		Timeout: o.deadline,
		// Pooled keep-alive connections, so a query doesn't re-dial workers.
		Transport: netexec.NewTransport(),
	})
	if err != nil {
		log.Fatalf("cubrick-coordinator: %v", err)
	}
	cluster.SetReplication(o.replication)
	reg := metrics.NewRegistry()
	coord := cluster.Coordinator()
	coord.Policy = o.policy
	coord.Breakers = netexec.NewBreakerGroup(netexec.DefaultBreakerConfig())
	coord.Breakers.Metrics = reg
	coord.Metrics = reg
	if o.resultCacheBytes > 0 {
		coord.ResultCache = rescache.New(o.resultCacheBytes)
		coord.ResultCache.SetMetrics(reg)
	}
	if o.maxConcurrent > 0 {
		coord.Admission = admission.New(admission.Config{
			MaxConcurrent: o.maxConcurrent,
			QueueDepth:    64, // arrivals beyond the queue are shed with 429
			Metrics:       reg,
		})
	}
	// A query slower than half a second logs its per-stage breakdown.
	tracer := trace.New(trace.Config{SlowQueryThreshold: 500 * time.Millisecond})
	coord.Tracer = tracer
	s := &coordServer{cluster: cluster, tracer: tracer, deadline: o.deadline,
		migrator: &migrate.Driver{ZK: zk.NewStore(nil), Router: cluster, Metrics: reg}}
	mux := http.NewServeMux()
	mux.HandleFunc("/tables", s.tables)
	mux.HandleFunc("/load", s.load)
	mux.HandleFunc("/query", s.query)
	mux.HandleFunc("/move", s.move)
	mux.HandleFunc("/health", s.health)
	mux.Handle("/debug/trace", tracer.Handler())
	mux.Handle("/debug/trace/", tracer.Handler())
	if o.enableMetrics {
		mux.Handle("/metrics", metrics.Handler(reg))
	}
	if o.enablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	var set []string
	flag.VisitAll(func(f *flag.Flag) { set = append(set, "-"+f.Name+"="+f.Value.String()) })
	log.Printf("cubrick-coordinator over %d workers: %s", len(clean), strings.Join(set, " "))
	log.Fatal(http.ListenAndServe(o.addr, mux))
}

type coordServer struct {
	cluster  *netexec.Cluster
	tracer   *trace.Tracer
	deadline time.Duration
	migrator *migrate.Driver
}

// reqCtx derives a request context bounded by the server deadline.
func (s *coordServer) reqCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.deadline)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *coordServer) tables(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.cluster.Tables())
	case http.MethodPost:
		var req struct {
			Name       string             `json:"name"`
			Partitions int                `json:"partitions"`
			Schema     netexec.SchemaJSON `json:"schema"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if req.Partitions == 0 {
			req.Partitions = 8 // the paper's default (§IV-B)
		}
		ctx, cancel := s.reqCtx(r)
		defer cancel()
		if err := s.cluster.CreateTable(ctx, req.Name, req.Schema.ToSchema(), req.Partitions); err != nil {
			writeErr(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"status": "created"})
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *coordServer) load(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req struct {
		Table string `json:"table"`
		Rows  []struct {
			Dims    []uint32  `json:"dims"`
			Metrics []float64 `json:"metrics"`
		} `json:"rows"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	dims := make([][]uint32, len(req.Rows))
	mets := make([][]float64, len(req.Rows))
	for i, row := range req.Rows {
		dims[i], mets[i] = row.Dims, row.Metrics
	}
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	if err := s.cluster.Load(ctx, req.Table, dims, mets); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"loaded": len(req.Rows)})
}

func (s *coordServer) query(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req struct {
		CQL string `json:"cql"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	st, err := cql.Parse(req.CQL)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sel, ok := st.(*cql.SelectStmt)
	if !ok || sel.JoinTable != "" {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("coordinator supports single-table SELECT only"))
		return
	}
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	// A client's priority orders its query in the admission queues, here
	// and, propagated worker-ward on the partial fetches, at the workers.
	if prio := r.Header.Get(netexec.HeaderPriority); prio != "" {
		priority, _ := strconv.Atoi(prio)
		ctx = admission.WithMeta(ctx, admission.Meta{Priority: priority})
	}
	// X-Cubrick-Cache: off forces a fully recomputed answer — the result
	// cache is skipped here and the header propagates to workers, which
	// bypass their decoded-column caches too.
	if r.Header.Get(netexec.HeaderCache) == "off" {
		ctx = netexec.WithCacheBypass(ctx)
	}
	// The root span covers parse-to-response; its trace ID goes back to
	// the client so a slow query is immediately retrievable from
	// /debug/trace/{id}.
	ctx, span := s.tracer.StartSpan(ctx, "coordinator.query")
	span.SetAttr("table", sel.Table)
	span.SetAttr("cql", req.CQL)
	if id := span.TraceID(); id != "" {
		w.Header().Set(trace.HeaderTrace, id)
	}
	res, err := s.cluster.Query(ctx, sel.Table, sel.Query)
	span.EndErr(err)
	if err != nil {
		if errors.Is(err, admission.ErrQueueFull) {
			// Shed by admission control, here or at a worker (whose 429
			// matches ErrQueueFull): 429 is retryable under the
			// client-side resilience policy.
			writeErr(w, http.StatusTooManyRequests, err)
			return
		}
		writeErr(w, http.StatusBadGateway, err)
		return
	}
	fanout, _ := s.cluster.Fanout(sel.Table)
	writeQueryResponse(w, res, fanout)
}

// replyPool recycles /query reply buffers: a reply is copied into the
// response as it is written, so its buffer is free again afterwards.
var replyPool = sync.Pool{New: func() any { return new([]byte) }}

// writeQueryResponse writes the /query success reply in one Write with a
// Content-Length. A result JSON cannot carry — a non-finite value — answers
// 500 with an error naming the value.
func writeQueryResponse(w http.ResponseWriter, res *engine.Result, fanout int) {
	buf := replyPool.Get().(*[]byte)
	defer replyPool.Put(buf)
	b, err := appendQueryReply((*buf)[:0], res, fanout)
	*buf = b
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

// appendQueryReply appends the /query success reply to b: the bytes
// encoding/json's Encoder writes for the reply as a map, keys in sorted
// order and missingPartitions only when non-empty, newline included
// (TestQueryResponseBytes). It returns b, grown, even with an error.
func appendQueryReply(b []byte, res *engine.Result, fanout int) ([]byte, error) {
	// Marshalling a []string cannot fail.
	cols, _ := json.Marshal(res.Columns)
	b = append(append(b, `{"columns":`...), cols...)
	b = append(b, `,"coverage":`...)
	b, err := appendFloat(b, res.Coverage)
	if err != nil {
		return b, err
	}
	b = strconv.AppendInt(append(b, `,"fanout":`...), int64(fanout), 10)
	if len(res.MissingPartitions) > 0 {
		missing, _ := json.Marshal(res.MissingPartitions)
		b = append(append(b, `,"missingPartitions":`...), missing...)
	}
	b = append(b, `,"rows":`...)
	if res.Rows == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, row := range res.Rows {
			if i > 0 {
				b = append(b, ',')
			}
			if row == nil {
				b = append(b, "null"...)
				continue
			}
			b = append(b, '[')
			for j, v := range row {
				if j > 0 {
					b = append(b, ',')
				}
				if b, err = appendFloat(b, v); err != nil {
					return b, err
				}
			}
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	b = strconv.AppendInt(append(b, `,"rowsScanned":`...), res.RowsScanned, 10)
	return append(b, "}\n"...), nil
}

// appendFloat appends v as encoding/json writes a float64. An integral
// value below 2^53 in magnitude, other than −0, is its own shortest
// round-trip form, so it is written as an integer; any other value takes
// json's rule: 'e' format below 1e-6 or from 1e21 in magnitude, 'f'
// otherwise, and a two-digit negative exponent loses its leading zero.
func appendFloat(b []byte, v float64) ([]byte, error) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return b, fmt.Errorf("result value %v is not finite, and JSON has no number for it", v)
	}
	abs := math.Abs(v)
	if abs < 1<<53 && v == math.Trunc(v) && !(v == 0 && math.Signbit(v)) {
		return strconv.AppendInt(b, int64(v), 10), nil
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// move runs (POST) or observes (GET) an online shard migration.
//
//	POST /move {"table":"events","partition":0,"target":"http://host:9003"}
//	GET  /move?table=events&partition=0
//
// The POST runs the full prepare→copy→catchup→cutover→flip→drop state
// machine synchronously and returns the completed record; a target URL
// that is not yet a cluster member joins as an empty worker first (the
// scale-out path). The GET returns the durable checkpoint, which is how
// an operator watches or post-mortems a move.
func (s *coordServer) move(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		table := r.URL.Query().Get("table")
		p, err := strconv.Atoi(r.URL.Query().Get("partition"))
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad partition: %w", err))
			return
		}
		rec, ok, err := s.migrator.LoadRecord(table, core.PartitionName(table, p))
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no migration recorded for %s partition %d", table, p))
			return
		}
		writeJSON(w, http.StatusOK, rec)
	case http.MethodPost:
		var req struct {
			Table     string `json:"table"`
			Partition int    `json:"partition"`
			Target    string `json:"target"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		urls, _, err := s.cluster.PartitionPlacement(req.Table, req.Partition)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if len(urls) == 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("no placement for %s partition %d", req.Table, req.Partition))
			return
		}
		s.cluster.AddWorker(req.Target) // no-op when already a member
		// The move is detached from the client connection: a migration must
		// not abort because the operator's curl timed out mid-cutover.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer cancel()
		rec, err := s.migrator.Start(ctx, &migrate.Record{
			Service:   req.Table,
			Shard:     int64(req.Partition),
			Partition: core.PartitionName(req.Table, req.Partition),
			Source:    urls[0],
			Target:    req.Target,
		})
		if err != nil {
			writeJSON(w, http.StatusBadGateway, map[string]interface{}{
				"error":  err.Error(),
				"record": rec,
			})
			return
		}
		writeJSON(w, http.StatusOK, rec)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *coordServer) health(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	bad := s.cluster.Health(ctx)
	status := http.StatusOK
	if len(bad) > 0 {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]interface{}{
		"workers":   len(s.cluster.Workers()),
		"unhealthy": bad,
	})
}
