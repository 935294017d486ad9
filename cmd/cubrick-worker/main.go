// Command cubrick-worker runs one networked execution worker: it hosts
// table partitions and executes partial queries over HTTP for a remote
// coordinator (see internal/netexec and examples/distributed).
//
//	cubrick-worker -addr :9001
//
// API: POST /partition, POST /loadbin, POST /partial, GET /health, plus
// the migration and dictionary planes (see internal/netexec). The serving
// flags (-fold, -compact-*, cache budgets, -rollup-*, admission) are
// partition.RegisterFlags, shared with cubrick-server.
//
// Observability: GET /metrics serves counters and latency histograms in
// Prometheus text format (-metrics, on by default), GET
// /debug/trace[/{id}] serves the bounded in-memory trace ring
// (coordinator-propagated trace IDs land here), and -slow-query-ms gates a
// one-line per-stage slow-query log. -pprof mounts net/http/pprof under
// /debug/pprof/. The debug and metrics endpoints bypass chaos injection.
//
// For resilience demos, -chaos-fail-prob injects server-side faults: each
// request fails with the given probability (HTTP 500) before reaching the
// worker, reproducing the chaos tests across real processes. -chaos-seed
// makes the failure stream deterministic.
package main

import (
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"time"

	"cubrick/internal/metrics"
	"cubrick/internal/netexec"
	"cubrick/internal/partition"
	"cubrick/internal/trace"
)

func main() {
	addr := flag.String("addr", ":9001", "listen address")
	enableMetrics := flag.Bool("metrics", true, "serve Prometheus text format on /metrics")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	traceRing := flag.Int("trace-ring", trace.DefaultRingSize, "how many traces the /debug/trace ring retains")
	slowQueryMS := flag.Int("slow-query-ms", 500, "log a per-stage breakdown for partials slower than this (0 disables)")
	chaosFailProb := flag.Float64("chaos-fail-prob", 0, "probability each request fails with HTTP 500 (fault injection; 0 disables)")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for the injected failure stream")
	compactDecay := flag.Float64("compact-decay", 0.8, "hotness decay factor applied before each compaction pass (1 disables decay)")
	migrateRateBytes := flag.Int64("migrate-rate-bytes", 0, "pace /export shard-migration streams to this many bytes per second (0 = unthrottled)")
	dictCapacity := flag.Uint("dict-capacity", 0, "fallback id capacity for global dictionaries created over /dict when the column names no schema dimension (0 = schema-derived only)")
	serving := partition.RegisterFlags(flag.CommandLine)
	flag.Parse()
	cfg, err := serving.Config()
	if err != nil {
		log.Fatalf("cubrick-worker: %v", err)
	}
	if *enableMetrics {
		cfg.Metrics = metrics.NewRegistry()
	}
	w := netexec.NewWorker(cfg)
	tracer := trace.New(trace.Config{
		RingSize:           *traceRing,
		SlowQueryThreshold: time.Duration(*slowQueryMS) * time.Millisecond,
	})
	w.Tracer = tracer
	w.ExportRateBytes = *migrateRateBytes
	w.DictCapacity = uint32(*dictCapacity)
	log.Printf("cubrick-worker serving: fold=%v brick-cache-bytes=%d decoded-cache-bytes=%d max-concurrent=%d queue-depth=%d rollup time-dim=%q bucket=%d dims=%q distinct=%q migrate-rate-bytes=%d",
		cfg.FoldScans, cfg.BrickCacheBytes, cfg.DecodedCacheBytes, cfg.MaxConcurrent, cfg.QueueDepth,
		cfg.RollupTimeDim, cfg.RollupBucket, cfg.RollupDims, cfg.RollupDistinct, *migrateRateBytes)
	handler := netexec.ChaosHandler(*chaosFailProb, *chaosSeed, w.Handler())
	// Debug and metrics endpoints mount on the outer mux so chaos-injected
	// 500s never hit the observability plane that diagnoses them.
	mux := http.NewServeMux()
	mux.Handle("/", handler)
	mux.Handle("/debug/trace", tracer.Handler())
	mux.Handle("/debug/trace/", tracer.Handler())
	if cfg.Metrics != nil {
		mux.Handle("/metrics", metrics.Handler(cfg.Metrics))
	}
	if *enablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	if *chaosFailProb > 0 {
		log.Printf("cubrick-worker chaos enabled: fail-prob=%g seed=%d", *chaosFailProb, *chaosSeed)
	}
	if serving.CompactInterval > 0 {
		ccfg, decay := serving.Compaction, *compactDecay
		log.Printf("cubrick-worker compactor: interval=%s encode-below=%g evict-below=%g promote-above=%g decay=%g",
			serving.CompactInterval, ccfg.EncodeBelow, ccfg.EvictBelow, ccfg.PromoteAbove, decay)
		go func() {
			t := time.NewTicker(serving.CompactInterval)
			defer t.Stop()
			for range t.C {
				if decay < 1 {
					w.Parts().DecayHotness(decay)
				}
				if _, err := w.Parts().Compact(ccfg); err != nil {
					log.Printf("cubrick-worker compaction: %v", err)
				}
			}
		}()
	}
	log.Printf("cubrick-worker listening on %s (metrics=%v pprof=%v slow-query-ms=%d)",
		*addr, *enableMetrics, *enablePprof, *slowQueryMS)
	log.Fatal(http.ListenAndServe(*addr, mux))
}
