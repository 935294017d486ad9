#!/bin/sh
# Distributed data-plane benchmarks: runs the netexec suite (coordinator
# merge old-vs-new, HTTP ingest old-vs-new, scatter-gather fan-out) plus
# the brick-level batch-ingest pair, and records the results as JSON in
# BENCH_netexec.json. Run from the repo root: ./scripts/bench.sh
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-2s}"
OUT=BENCH_netexec.json
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo "== go test -bench (netexec, benchtime=$BENCHTIME)"
go test ./internal/netexec/ -run '^$' -bench 'Merge|Ingest|Fanout' \
    -benchtime "$BENCHTIME" | tee "$RAW"

echo "== go test -bench (brick batch ingest, benchtime=$BENCHTIME)"
go test ./internal/brick/ -run '^$' -bench 'InsertRowLoop|InsertBatch$' \
    -benchtime "$BENCHTIME" | tee -a "$RAW"

# Parse "BenchmarkName  <iters>  <ns> ns/op ..." lines into JSON, then
# derive the two headline speedups the data plane is judged on.
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)           # strip -<GOMAXPROCS> suffix
    ns[name] = $3
    order[n++] = name
}
END {
    printf "{\n  \"generated\": \"%s\",\n  \"benchtime\": \"'"$BENCHTIME"'\",\n", date
    printf "  \"results_ns_per_op\": {\n"
    for (i = 0; i < n; i++) {
        printf "    \"%s\": %s%s\n", order[i], ns[order[i]], (i < n-1 ? "," : "")
    }
    printf "  },\n  \"speedups\": {\n"
    printf "    \"merge_16_workers\": %.2f,\n", ns["BenchmarkMergeBarrier16"] / ns["BenchmarkMergeStream16"]
    printf "    \"merge_64_workers\": %.2f,\n", ns["BenchmarkMergeBarrier64"] / ns["BenchmarkMergeStream64"]
    printf "    \"http_ingest\": %.2f\n", ns["BenchmarkIngestJSON"] / ns["BenchmarkIngestBinary"]
    printf "  }\n}\n"
}' "$RAW" > "$OUT"

echo "== wrote $OUT"
cat "$OUT"

# Resilience under injected faults: success rate and p99 latency at
# fan-out 4/16/64, with and without the resilience layer (seeded
# FaultRoundTripper, 2% per-request failure probability).
echo "== resilience bench (seeded fault injection)"
RESILIENCE_BENCH_OUT="$(pwd)/BENCH_resilience.json" \
    go test ./internal/netexec/ -run '^TestResilienceBench$' -count=1
echo "== wrote BENCH_resilience.json"
cat BENCH_resilience.json

# Observability overhead: the 64-worker scatter-gather query (streamed
# merge included) with the full tracing+metrics plane live versus plain.
# The PR budget is <=3% overhead; the on-path histogram updates are
# lock-free, so anything beyond low single digits is a regression.
echo "== observability overhead bench (64-worker fan-out, benchtime=$BENCHTIME)"
OBS_RAW="$(mktemp)"
go test ./internal/netexec/ -run '^$' -bench 'QueryFanout64(Observed)?$' \
    -benchtime "$BENCHTIME" -count 3 | tee "$OBS_RAW"
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
$1 ~ /^BenchmarkQueryFanout64(-[0-9]+)?$/          { plain += $3; np++ }
$1 ~ /^BenchmarkQueryFanout64Observed(-[0-9]+)?$/  { obs += $3; no++ }
END {
    if (np == 0 || no == 0) { print "missing benchmark output" > "/dev/stderr"; exit 1 }
    plain /= np; obs /= no
    printf "{\n  \"generated\": \"%s\",\n  \"benchtime\": \"'"$BENCHTIME"'\",\n", date
    printf "  \"benchmark\": \"BenchmarkQueryFanout64 (plain vs tracing+metrics)\",\n"
    printf "  \"runs_averaged\": %d,\n", np
    printf "  \"plain_ns_per_op\": %.0f,\n", plain
    printf "  \"observed_ns_per_op\": %.0f,\n", obs
    printf "  \"overhead_pct\": %.2f,\n", (obs - plain) / plain * 100
    printf "  \"budget_pct\": 3.0\n}\n"
}' "$OBS_RAW" > BENCH_observability.json
rm -f "$OBS_RAW"
echo "== wrote BENCH_observability.json"
cat BENCH_observability.json

# Storage layer: compression ratio + cold-scan throughput of the adaptive
# per-column encodings versus the legacy flate-of-varints baseline, across
# low-cardinality / sequential / random shapes, plus the run-aware GROUP BY
# kernel versus materialize-then-aggregate over RLE bricks, plus the
# encoded-execution series: 2-dim composite-key GROUP BY over encoded
# bricks (>=3x vs materialize) and selective-filter scans touching <10%
# of runs under the compiled skippers + bounds pruning (>=5x vs full
# decode). Acceptance: lightweight scans >=3x faster than flate on
# lowcard/sequential with compression ratio within 1.5x of flate.
echo "== storage bench (adaptive encodings vs flate baseline)"
STORAGE_RAW="$(mktemp)"
RLE_RAW="$(mktemp)"
ENCODED_RAW="$(mktemp)"
STORAGE_BENCH_OUT="$STORAGE_RAW" \
    go test ./internal/brick/ -run '^TestStorageBench$' -count=1
RLE_BENCH_OUT="$RLE_RAW" \
    go test ./internal/engine/ -run '^TestRLEKernelBench$' -count=1
ENCODED_BENCH_OUT="$ENCODED_RAW" \
    go test ./internal/engine/ -run '^TestEncodedExecBench$' -count=1
{
    printf '{\n  "storage": '
    cat "$STORAGE_RAW"
    printf ',\n  "rle_kernel": '
    cat "$RLE_RAW"
    printf ',\n  "encoded_exec": '
    cat "$ENCODED_RAW"
    printf '}\n'
} > BENCH_storage.json
rm -f "$STORAGE_RAW" "$RLE_RAW" "$ENCODED_RAW"
echo "== wrote BENCH_storage.json"
cat BENCH_storage.json

# Shared-scan folding under concurrency: aggregate QPS and p50/p99 at
# 1/8/64/512 concurrent queries over a zipf-skewed shape population,
# folded (scan scheduler) vs unfolded (solo passes). Acceptance: >=2x
# aggregate QPS at 64 concurrent same-table queries, p99 at concurrency 1
# no worse than unfolded.
echo "== concurrency bench (shared-scan folding vs solo)"
CONCURRENCY_BENCH_OUT="$(pwd)/BENCH_concurrency.json" \
    go test ./internal/engine/ -run '^TestConcurrencyBench$' -count=1 -timeout 30m
echo "== wrote BENCH_concurrency.json"
cat BENCH_concurrency.json

# Multi-level caching tier: p50/p99 of a zipf-2.0 dashboard replay (4 hot
# shapes) against a 2-worker cluster, caches on/off x ingest on/off, plus
# result-cache hit rates and invalidation counts. Acceptance: >=5x p50
# speedup with caches on (idle), hit rate >=80%, p99 under ingest no worse
# than the uncached tier under the same ingest.
echo "== caching bench (zipf dashboard replay, caches on/off x ingest on/off)"
CACHING_BENCH_OUT="$(pwd)/BENCH_caching.json" \
    go test ./internal/netexec/ -run '^TestCachingBench$' -count=1 -timeout 30m
echo "== wrote BENCH_caching.json"
cat BENCH_caching.json

# Online rebalance: a loaded 4-worker cluster gains an empty worker and
# three partitions migrate onto it while a zipf replay keeps running.
# Reports the cost of the move (bytes/rows shipped, catch-up rounds, the
# fence→flip write-unavailability window per partition) and p50/p99 during
# the migration versus steady state before and after. Acceptance: zero
# failed queries in every phase (the test itself fails otherwise).
echo "== rebalance bench (online shard migration under zipf replay)"
REBALANCE_BENCH_OUT="$(pwd)/BENCH_rebalance.json" \
    go test ./internal/migrate/ -run '^TestRebalanceBench$' -count=1 -timeout 30m
echo "== wrote BENCH_rebalance.json"
cat BENCH_rebalance.json

# Realtime dashboard path: aligned coarse time-window aggregates served
# from the incremental rollup vs the same query as a raw brick scan
# (p50/p99 over a 1M-row store). Acceptance: rollup >=10x p50.
echo "== realtime bench (rollup vs raw scan)"
REALTIME_BENCH_OUT="$(pwd)/BENCH_realtime.json" \
    go test ./internal/netexec/ -run '^TestRealtimeBench$' -count=1 -timeout 30m
echo "== wrote BENCH_realtime.json"
cat BENCH_realtime.json
