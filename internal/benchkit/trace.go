package benchkit

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// runTraced produces the per-layer metrics. A first rig, set up exactly
// as an untraced run's, gives the untraced median for a window half as
// long; a second rig has a recording proxy between the coordinator and
// each worker and is measured for the full window. Everything per-layer
// is read from that second window: spans at the socket boundary, /proc of
// each child, and the difference of each process's /metrics.
func (s *session) runTraced(ctx context.Context) (*Report, error) {
	ref, _, err := s.setup(ctx, s.Workload.Faults)
	if err != nil {
		return nil, err
	}
	refWin, err := s.window(ctx, ref, s.Seconds/2)
	ref.Stop()
	if err != nil {
		return nil, err
	}

	rig, _, err := s.setup(ctx, true)
	if err != nil {
		return nil, err
	}
	defer rig.Stop()
	for _, px := range rig.proxies {
		px.Drain() // set-up and warm-up calls are not the window's
	}
	before, err := rig.snapshot()
	if err != nil {
		return nil, err
	}
	win, err := s.window(ctx, rig, s.Seconds)
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, rig.Logs())
	}
	after, err := rig.snapshot()
	if err != nil {
		return nil, err
	}
	var calls []Span
	for i, px := range rig.proxies {
		spans, untraced := px.Drain()
		if untraced > 0 {
			return nil, fmt.Errorf("%d /partial calls reached worker %d without an %s header: spans cannot be joined", untraced, i, traceHeader)
		}
		for j := range spans {
			spans[j].Worker = i
		}
		calls = append(calls, spans...)
	}
	direct, err := Direct(ctx, rig.workers[0].url, rig.proxies[0].Captured())
	if err != nil {
		return nil, fmt.Errorf("direct probe: %w", err)
	}

	rep := win.report()
	m := layerMetrics(win.queries, calls, s.Workload.Partitions)
	nq := float64(len(win.queries))
	wall := win.elapsed.Seconds()
	m["worker.partial_direct_ms_p50"] = orAbsent(Median(direct))
	workerCPU := after.workerCPU - before.workerCPU
	coordCPU := after.coordCPU - before.coordCPU
	m["worker.cpu_ms_per_query"] = workerCPU.Seconds() * 1e3 / nq
	m["coordinator.cpu_ms_per_query"] = coordCPU.Seconds() * 1e3 / nq
	m["rig.cpu_util"] = (workerCPU + coordCPU).Seconds() / (wall * float64(runtime.NumCPU()))
	m["coordinator.rss_mb"] = float64(after.coordRSS) / (1 << 20)
	m["worker.rss_mb"] = float64(after.workerRSS) / (1 << 20)
	programMetrics(m, before, after, nq)
	m["ingest.batch_ms_p50"] = orAbsent(Percentile(win.ingestMS, 0.50))
	m["ingest.batch_ms_p95"] = orAbsent(Percentile(win.ingestMS, 0.95))
	m["generator.lateness_ms_p95"] = orAbsent(Percentile(win.latenessMS, 0.95))
	lat := win.latencies()
	m["client.query_p99_ms"] = Percentile(lat, 0.99)
	m["client.samples"] = nq
	m["client.failed_ratio"] = float64(rep.Failed) / float64(rep.Attempted)
	m["trace.overhead_ratio"] = Median(lat)/Median(refWin.latencies()) - 1
	rep.Metrics = m
	// The untraced half-window's failures count too.
	refRep := refWin.report()
	rep.Attempted += refRep.Attempted
	rep.Failed += refRep.Failed
	rep.Correct = rep.Correct && refRep.Correct

	path := filepath.Join(s.work, "trace", fmt.Sprintf("%s-seed%d.jsonl", s.Workload.Name, s.Seed))
	if err := writeSpans(path, win.queries, calls); err != nil {
		return nil, err
	}
	fmt.Fprintf(s.Log, "%s spans written to %s\n", s.Workload.Name, path)
	return rep, nil
}

func orAbsent(v float64) float64 {
	if math.IsNaN(v) { // no samples
		return Absent
	}
	return v
}

// snapshot is the state read at each edge of the traced window.
type snapshot struct {
	coordCPU, workerCPU time.Duration
	coordRSS, workerRSS int64
	coord, workers      map[string]float64 // /metrics
}

func (r *Rig) snapshot() (*snapshot, error) {
	var s snapshot
	ps, err := SampleProc(r.coordinator.pid())
	if err != nil {
		return nil, err
	}
	s.coordCPU, s.coordRSS = ps.CPU, ps.RSS
	for _, w := range r.workers {
		if ps, err = SampleProc(w.pid()); err != nil {
			return nil, err
		}
		s.workerCPU += ps.CPU
		s.workerRSS += ps.RSS
	}
	if s.coord, err = r.metrics(r.coordinator); err != nil {
		return nil, err
	}
	if s.workers, err = r.workerMetrics(); err != nil {
		return nil, err
	}
	return &s, nil
}

// programMetrics fills the metrics that come from the binaries' own
// counters. A counter the binaries do not export reads Absent; it never
// fails the run, so the programs stay free to rename their internals.
func programMetrics(m map[string]float64, before, after *snapshot, nq float64) {
	delta := func(a, b map[string]float64, name string) (float64, bool) {
		v, ok := b[name]
		return v - a[name], ok
	}
	// ratio is Δnum / (Δnum + Δrest...), Absent when a counter is missing
	// or nothing was counted.
	ratio := func(a, b map[string]float64, num string, rest ...string) float64 {
		n, ok := delta(a, b, num)
		total := n
		for _, name := range rest {
			v, ok2 := delta(a, b, name)
			ok = ok && ok2
			total += v
		}
		if !ok || total == 0 {
			return Absent
		}
		return n / total
	}
	bw, aw := before.workers, after.workers
	m["rollup.served_ratio"] = ratio(bw, aw, "worker_rollup_hits", "worker_rollup_misses")
	m["engine.brick_cache.hit_ratio"] = ratio(bw, aw, "cache_brick_hit", "cache_brick_miss")
	m["brick.decoded_cache.hit_ratio"] = ratio(bw, aw, "cache_decoded_hit", "cache_decoded_miss")
	m["engine.fold.attached_ratio"] = ratio(bw, aw, "engine_fold_attached", "engine_fold_solo")

	// Top-k queries answered from the first fan-out alone: neither a
	// second phase nor a fall-back to full partials.
	m["netexec.topk.phase1_ratio"] = Absent
	if n, ok := delta(before.coord, after.coord, "netexec_topk_queries"); ok && n > 0 {
		second, _ := delta(before.coord, after.coord, "netexec_topk_second_phase")
		fallback, _ := delta(before.coord, after.coord, "netexec_topk_fallback")
		m["netexec.topk.phase1_ratio"] = max(0, n-second-fallback) / n
	}

	m["engine.rows_scanned_per_query"] = Absent
	if v, ok := delta(bw, aw, "worker_rows_scanned"); ok {
		m["engine.rows_scanned_per_query"] = v / nq
	}
	m["admission.queue_ms_per_query"] = Absent
	cq, ok1 := delta(before.coord, after.coord, "query_queue_ms_sum")
	wq, ok2 := delta(bw, aw, "query_queue_ms_sum")
	if ok1 && ok2 {
		m["admission.queue_ms_per_query"] = (cq + wq) / nq
	}
	m["brick.compact.encoded_bricks"] = Absent
	if v, ok := aw["brick_compact_encoded"]; ok {
		m["brick.compact.encoded_bricks"] = v - aw["brick_compact_promoted"]
	}
}

// layerMetrics computes everything that comes from spans alone: client
// /query spans joined to the coordinator→worker calls of the same trace.
// partitions is the table's partition count, the calls a query needs when
// nothing is retried, hedged or cached.
func layerMetrics(queries, calls []Span, partitions int) map[string]float64 {
	byTrace := make(map[string][]Span, len(queries))
	inWindow := make(map[string]bool, len(queries))
	for _, q := range queries {
		inWindow[q.Trace] = true
	}
	var partialMS, loadMS []float64
	var reqBytes, respBytes, nCalls, failedCalls, wasted float64
	for _, c := range calls {
		switch c.Name {
		case "/loadbin":
			loadMS = append(loadMS, float64(c.End-c.Start)/1e6)
		case "/partial":
			if !inWindow[c.Trace] {
				continue
			}
			byTrace[c.Trace] = append(byTrace[c.Trace], c)
			nCalls++
			reqBytes += float64(c.ReqBytes)
			respBytes += float64(c.RespBytes)
			switch {
			case c.Cancelled:
				wasted++
			case c.Status != http.StatusOK:
				failedCalls++
			default:
				partialMS = append(partialMS, float64(c.End-c.Start)/1e6)
			}
		}
	}
	var selfMS, straggler []float64
	var wallNS, selfNS, partialNS, uncached, cachedHits, extra float64
	for _, q := range queries {
		parent := Interval{q.Start, q.End}
		kids := byTrace[q.Trace]
		ivs := make([]Interval, len(kids))
		durs := make([]float64, 0, len(kids))
		for i, k := range kids {
			ivs[i] = Interval{k.Start, k.End}
			if k.Status == http.StatusOK && !k.Cancelled {
				durs = append(durs, float64(k.End-k.Start))
			}
		}
		self := SelfTime(parent, ivs)
		selfMS = append(selfMS, float64(self)/1e6)
		wallNS += float64(q.End - q.Start)
		selfNS += float64(self)
		partialNS += float64(q.End-q.Start) - float64(self)
		if len(kids) == 0 {
			cachedHits++
			continue
		}
		uncached++
		extra += float64(len(kids) - partitions)
		if len(durs) >= 2 {
			slowest := Percentile(durs, 1)
			straggler = append(straggler, slowest/Median(durs))
		}
	}
	nq := float64(len(queries))
	m := map[string]float64{
		"worker.partial_ms_p50":                 orAbsent(Percentile(partialMS, 0.50)),
		"worker.partial_ms_p95":                 orAbsent(Percentile(partialMS, 0.95)),
		"worker.partial_share":                  partialNS / wallNS,
		"coordinator.self_ms_p50":               Percentile(selfMS, 0.50),
		"coordinator.self_ms_p95":               Percentile(selfMS, 0.95),
		"coordinator.self_share":                selfNS / wallNS,
		"netexec.wire.resp_bytes_per_query":     respBytes / nq,
		"netexec.wire.req_bytes_per_query":      reqBytes / nq,
		"netexec.fanout.calls_per_query":        nCalls / nq,
		"netexec.fanout.straggler_ratio":        orAbsent(Median(straggler)),
		"netexec.fanout.extra_calls_per_query":  Absent,
		"netexec.resilience.failed_calls_ratio": Absent,
		"netexec.resilience.wasted_call_ratio":  Absent,
		"rescache.hit_ratio":                    cachedHits / nq,
		"worker.load_ms_p50":                    orAbsent(Percentile(loadMS, 0.50)),
	}
	if uncached > 0 {
		m["netexec.fanout.extra_calls_per_query"] = extra / uncached
	}
	if nCalls > 0 {
		m["netexec.resilience.failed_calls_ratio"] = failedCalls / nCalls
		m["netexec.resilience.wasted_call_ratio"] = wasted / nCalls
	}
	return m
}

// writeSpans writes the window's spans as JSON lines: the benchmark keeps
// them in memory while it measures and writes once, at the end.
func writeSpans(path string, groups ...[]Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, g := range groups {
		for i := range g {
			if err := enc.Encode(&g[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// commit returns the VCS revision the benchmark binary was built from, or
// "unknown" outside a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
