#!/bin/sh
# Repo check: build, vet, full test suite, and the race detector over the
# concurrency-bearing packages (brick-parallel execution, coordinator
# fan-out, HTTP executors). Run from the repo root: ./scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l"
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt needed:"
    echo "$UNFORMATTED"
    exit 1
fi

# One brick loop (PR 14): run.go's visitBrick is the engine's only
# decode/filter/observe body, reached through the one engine.Run entry
# point. A second VisitBatch call site anywhere in non-test internal/engine
# is a second copy of that body in the making, and so is a ScanTask.Visit
# call: the deleted rollup delta scan was a row-at-a-time brick loop over
# Visit that the VisitBatch count never saw. The old entry points, the
# serial Execute and the test toggles that forked the brick visit must not
# come back. The reference the loop is checked against is internal/oracle,
# which tests alone import.
echo "== one brick loop"
ENGINE_SRC="$(ls internal/engine/*.go | grep -v _test.go)"
SITES="$(cat $ENGINE_SRC | grep -c 'VisitBatch(' || true)"
if [ "$SITES" != 1 ]; then
    echo "one brick loop: $SITES VisitBatch( call sites in non-test internal/engine, want exactly 1:"
    grep -n 'VisitBatch(' $ENGINE_SRC
    exit 1
fi
if grep -n '\.Visit(' $ENGINE_SRC; then
    echo "one brick loop: non-test internal/engine calls ScanTask.Visit (see above); visitBrick's VisitBatch is the only brick loop"
    exit 1
fi
if grep -rn --include='*.go' 'ExecuteParallel' .; then
    echo "one brick loop: ExecuteParallel is back (see above); engine.Run is the only entry point"
    exit 1
fi
if grep -n 'disableSkippers\|disableEncodedKernels\|noSkippers\|noEncodedKernels\|func Execute(' $ENGINE_SRC; then
    echo "one brick loop: the serial Execute or a test toggle is back in non-test internal/engine (see above); tests check Run against internal/oracle"
    exit 1
fi
echo "internal/engine non-test lines: $(cat $ENGINE_SRC | wc -l)"

# One reference oracle: internal/oracle is a test package, the reference
# every differential wall checks Run against. Production code importing it
# would ship a second executor.
echo "== oracle imported by tests only"
NONTEST_GO="$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*')"
if grep -n '"cubrick/internal/oracle"' $NONTEST_GO; then
    echo "oracle imported by tests only: non-test code imports internal/oracle (see above)"
    exit 1
fi

# One worker (PR 16): internal/partition is the only place a partition's
# store meets a brick pass, so every worker answer is admission plus one
# engine.Run; netexec.Worker and cubrick.Node are edges around it. A second
# call site is a second worker in the making, and the runtime setters that
# existed to reconfigure one must not come back.
echo "== one worker"
OUTSIDE_ENGINE="$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/engine/*' ! -path './.bench_build/*')"
SITES="$(cat $OUTSIDE_ENGINE | grep -cF 'engine.Run(' || true)"
if [ "$SITES" != 1 ]; then
    echo "one worker: $SITES call sites of engine.Run( in non-test code outside internal/engine, want exactly 1:"
    grep -nF 'engine.Run(' $OUTSIDE_ENGINE
    exit 1
fi
if grep -rn 'SetFoldScans\|SetCacheBudgets\|SetAdmission' --include='*.go' .; then
    echo "one worker: a runtime serving setter is back (see above); serving options are partition.Config, fixed at construction"
    exit 1
fi
# One ingest path: both planes load through the worker's POST /loadbin, so
# its fence and its all-or-nothing batch check see every write. The
# in-process plane writes no store itself, and rows become columns only in
# netexec.EncodeBatch: the row-major store insert must not come back.
if grep -nE '\.Insert\(|\.InsertBatch\(|InsertBatchRows' $(ls internal/cubrick/*.go | grep -v _test.go); then
    echo "one worker: non-test internal/cubrick writes a store directly (see above); ship batches through the worker's /loadbin"
    exit 1
fi
if grep -n 'InsertBatchRows' $NONTEST_GO; then
    echo "one worker: InsertBatchRows is back in non-test code (see above); rows become columns in netexec.EncodeBatch"
    exit 1
fi
WORKER_SRC="$(ls internal/netexec/*.go internal/cubrick/*.go internal/partition/*.go | grep -v _test.go)"
echo "internal/netexec + internal/cubrick + internal/partition non-test lines: $(cat $WORKER_SRC | wc -l)"

# No rollups: incremental rollups were a second answer path on every
# worker, and switching them off doubled dash_replay's qps (the only
# workload they served) and moved no other workload past its bound, so
# they were deleted with their brick hooks rather than kept as a mode. What
# remains is -rollup-time-dim, -rollup-bucket and -rollup-dims, which
# partition/flags.go still parses and ignores because the benchmark rig
# (internal/benchkit) still passes them.
echo "== no rollups"
if [ -e internal/rollup ]; then
    echo "no rollups: internal/rollup is back"
    exit 1
fi
if grep -n 'ExecuteRollup\|VisitSince\|SetIngestObserver' $NONTEST_GO; then
    echo "no rollups: the rollup path or a brick hook only it used is back (see above)"
    exit 1
fi

# No shared scans: folding concurrent same-key queries into one brick pass
# (publish, attach, catch-up, abort-retry) was measured on the benchmark's
# own workloads — an attach ratio of 0.004 on dash_replay, absent on the
# others, and no end-to-end metric moved with it off — so it was deleted
# rather than kept as a mode: every query runs its own brick pass. What
# remains is the retired -fold flag, which partition/flags.go and
# cubrick-coordinator still parse and ignore because the benchmark rig
# (internal/benchkit) still passes it.
echo "== no shared scans"
if grep -n 'FoldStats\|HeaderFold\|NoFold\|FoldScans\|Unshared\|CatchupBricks\|errPassAborted\|pooledClone' $NONTEST_GO; then
    echo "no shared scans: shared-scan folding or its plumbing is back (see above)"
    exit 1
fi
FLAG_SRC="$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/benchkit/*' ! -path './.bench_build/*' ! -path './internal/partition/flags.go' ! -path './cmd/cubrick-coordinator/main.go')"
if grep -n '"fold"' $FLAG_SRC; then
    echo "no shared scans: a \"fold\" flag is declared outside internal/partition/flags.go and cmd/cubrick-coordinator/main.go (see above)"
    exit 1
fi

# Wall-clock ratchet: logic that reads the wall clock cannot be replayed
# deterministically, so the count of wall-clock call sites in non-test
# internal/ (simclock is the clock abstraction; benchkit measures real
# time) may fall but never rise. Lower WALL_CLOCK_MAX when a change removes
# sites.
echo "== wall-clock ratchet"
WALL_CLOCK_MAX=24
CLOCK_SRC="$(find internal -name '*.go' ! -name '*_test.go' ! -path 'internal/simclock/*' ! -path 'internal/benchkit/*')"
CLOCK_SITES="$(cat $CLOCK_SRC | grep -oE 'time\.(Now|Since|After|NewTimer|NewTicker|Sleep|Tick|AfterFunc|Until)\(' | wc -l)"
echo "wall-clock call sites in non-test internal/: $CLOCK_SITES (ceiling $WALL_CLOCK_MAX)"
if [ "$CLOCK_SITES" -gt "$WALL_CLOCK_MAX" ]; then
    echo "wall-clock ratchet: $CLOCK_SITES call sites, above the ceiling of $WALL_CLOCK_MAX:"
    grep -nE 'time\.(Now|Since|After|NewTimer|NewTicker|Sleep|Tick|AfterFunc|Until)\(' $CLOCK_SRC
    exit 1
fi

# One fault model: a call's fault and latency are drawn on the wire by
# cluster.FaultTransport, a pure function of (seed, query key, host, n),
# on both planes. The client transport with its own stream and real
# sleeps, the worker-side handler that failed requests from another
# stream, and the plan's pre-drawn outcomes must not come back: no
# non-test Go defines FaultRoundTripper or ChaosHandler, SampleOutcome is
# called only inside internal/cluster (FaultTransport, and Fig 5's
# analytic FanOut), and non-test internal/cubrick names no randutil.Source
# and makes one random stream: Open's randutil.New, which seeds the
# discovery tree.
echo "== one fault model"
if grep -nE 'FaultRoundTripper|ChaosHandler' $NONTEST_GO; then
    echo "one fault model: FaultRoundTripper or ChaosHandler is back in non-test code (see above); draw faults with cluster.FaultTransport"
    exit 1
fi
if grep -nF 'SampleOutcome(' $(find . -name '*.go' ! -name '*_test.go' ! -path './internal/cluster/*' ! -path './.bench_build/*'); then
    echo "one fault model: SampleOutcome is called outside internal/cluster (see above); draw faults with cluster.FaultTransport"
    exit 1
fi
CUBRICK_NONTEST="$(ls internal/cubrick/*.go | grep -v _test.go)"
if grep -nF 'randutil.Source' $CUBRICK_NONTEST || [ "$(grep -oE 'randutil\.New[A-Za-z]*\(' $CUBRICK_NONTEST | wc -l)" -gt 1 ]; then
    grep -nE 'randutil\.New[A-Za-z]*\(' $CUBRICK_NONTEST
    echo "one fault model: non-test internal/cubrick holds a randutil.Source or makes a second random stream (see above); queries draw on the wire"
    exit 1
fi

# One fan-out (PR 19): Coordinator.gather is the only goroutine-per-call
# loop and calls the one fetchCall; fetchResilient is reached through it
# only; and the networked plane does not import the in-process one.
echo "== one fan-out"
NETEXEC_SRC="$(ls internal/netexec/*.go | grep -v _test.go)"
SITES="$(cat $NETEXEC_SRC | grep -v '^func ' | grep -c 'fetchCall(' || true)"
if [ "$SITES" != 1 ]; then
    echo "one fan-out: $SITES call sites of fetchCall( in non-test internal/netexec, want exactly 1:"
    grep -n 'fetchCall(' $NETEXEC_SRC
    exit 1
fi
OUTSIDE="$(cat $NETEXEC_SRC | awk '/^func \(c \*Coordinator\) fetchCall\(/ { inside = 1 } /^}/ { inside = 0 } !inside && !/^func / && /fetchResilient\(/' | wc -l)"
if [ "$OUTSIDE" != 0 ]; then
    echo "one fan-out: fetchResilient( is called outside fetchCall:"
    grep -n 'fetchResilient(' $NETEXEC_SRC
    exit 1
fi
if go list -f '{{join .Imports "\n"}}' ./internal/netexec | grep -q 'internal/cubrick$'; then
    echo "one fan-out: internal/netexec imports internal/cubrick again"
    exit 1
fi
echo "internal/netexec non-test lines: $(cat $NETEXEC_SRC | wc -l)"

# One retry loop: the coordinator's fetches, the cluster's loads and the
# migration driver's steps retry through netexec.QueryPolicy.Retry, so
# backoffFor( and jitter( are called inside it and nowhere else. The
# migration driver's own loop, its random source and its hand-made timers
# must not come back, nor the export pacing nothing set.
echo "== one retry loop"
OUTSIDE="$(awk '/^func \(p QueryPolicy\) Retry\(/ { inside = 1 } /^}/ { inside = 0 } !inside && !/^func (jitter|\(p QueryPolicy\) backoffFor)\(/ && /(backoffFor|jitter)\(/ { print FILENAME ":" FNR ": " $0 }' $NONTEST_GO)"
if [ -n "$OUTSIDE" ]; then
    echo "one retry loop: backoffFor( or jitter( is called outside QueryPolicy.Retry; retry through it:"
    printf '%s\n' "$OUTSIDE"
    exit 1
fi
MIGRATE_SRC="$(ls internal/migrate/*.go | grep -v _test.go)"
if grep -nF -e 'rand.New' -e 'time.NewTimer' -e 'func (d *Driver) retry' $MIGRATE_SRC; then
    echo "one retry loop: non-test internal/migrate has its own retry loop, random source or timer (see above); use netexec.QueryPolicy.Retry and netexec.SleepCtx"
    exit 1
fi
if grep -nF -e 'ExportRateBytes' -e 'writePaced' $NONTEST_GO; then
    echo "one retry loop: export pacing is back in non-test code (see above)"
    exit 1
fi

# One coordinator: the in-process plane runs netexec.Coordinator too, over
# an in-memory transport that hands each /partial call to the host's
# netexec.Worker handler. So Deployment.Query and QueryBestEffort make one
# call per host through the networked plane's fan-out, and non-test
# internal/cubrick starts no goroutine of its own. The per-partition
# scatter-gather, its fan-out sampler, the node's direct partial entry
# point and the migration forward only it followed must not come back, and
# the package builds its Coordinator in one place: one per region at Open,
# never per query (not in query.go or replicated.go). Every query runs
# under its caller's context, so no non-test code calls context.TODO().
# Best effort is chosen in the plan, not by a second coordinator policy, so
# non-test internal/cubrick sets no MinCoverage; and a join is an ordinary
# query resolved by Deployment.ResolveJoin, so no QueryJoin copy of Query
# may come back in internal/cubrick or internal/proxy.
echo "== one coordinator"
CUBRICK_SRC="$(ls internal/cubrick/*.go | grep -v _test.go)"
if grep -nE '^[[:space:]]*go[[:space:]]|[{;][[:space:]]*go[[:space:]]' $CUBRICK_SRC; then
    echo "one coordinator: non-test internal/cubrick starts a goroutine (see above); fan out through netexec.Coordinator"
    exit 1
fi
if grep -n 'scatterGather\|sampleFanOut\|ExecutePartial\|ForwardTarget' $NONTEST_GO; then
    echo "one coordinator: the in-process scatter-gather or its plumbing is back (see above)"
    exit 1
fi
SITES="$(cat $CUBRICK_SRC | grep -oF 'netexec.Coordinator{' | wc -l)"
if [ "$SITES" -gt 1 ]; then
    echo "one coordinator: $SITES netexec.Coordinator{ literals in non-test internal/cubrick, want at most 1:"
    grep -nF 'netexec.Coordinator{' $CUBRICK_SRC
    exit 1
fi
if grep -nF 'netexec.Coordinator{' internal/cubrick/query.go internal/cubrick/replicated.go; then
    echo "one coordinator: a query builds its own netexec.Coordinator again (see above); use the region's, built at Open"
    exit 1
fi
if grep -nF 'context.TODO(' $NONTEST_GO; then
    echo "one coordinator: non-test code calls context.TODO() (see above); take the caller's context"
    exit 1
fi
if grep -nF 'MinCoverage' $CUBRICK_SRC; then
    echo "one coordinator: non-test internal/cubrick sets MinCoverage (see above); best effort is chosen in the plan"
    exit 1
fi
PROXY_SRC="$(ls internal/proxy/*.go | grep -v _test.go)"
if grep -nE 'func .*QueryJoin\(' $CUBRICK_SRC $PROXY_SRC; then
    echo "one coordinator: a QueryJoin copy of Query is back (see above); resolve the join with Deployment.ResolveJoin and run Query"
    exit 1
fi
echo "internal/cubrick non-test lines: $(cat $CUBRICK_SRC | wc -l)"

# One join path: a co-located star join is an ordinary /partial call. The
# join rides in the query (engine.Query.Join), partition.Set hands the
# replica to its one engine.Run, which pushes the GROUP BY below the join
# and makes the same brick pass, and netexec.Coordinator merges the host
# answers. The row-at-a-time join executor, its second validator and the
# node's join entry point must not come back, and non-test
# internal/cubrick merges no partial of its own.
echo "== one join path"
if grep -n 'ExecuteJoin\|validateJoined\|ExecuteJoinPartial' $NONTEST_GO; then
    echo "one join path: the row-at-a-time join or its plumbing is back (see above); joins run through engine.Run and netexec.Coordinator"
    exit 1
fi
if grep -n 'NewPartial(\|\.Merge(' $CUBRICK_SRC; then
    echo "one join path: non-test internal/cubrick merges partials (see above); netexec.Coordinator is the only merge"
    exit 1
fi

# One /partial call per host: a query makes one worker call per placement
# and the worker merges the call's partitions, so its calls — and its
# exposure to the wall, (1-p)^calls — scale with hosts. A host's merged
# blob is several partitions' worth, and compressing it cost more CPU on
# both ends than it saved on any datacenter link, so replies go raw: no
# gzip writer or threshold may come back. The tests run after the build.
echo "== one /partial call per host"
if grep -n 'compress/gzip\|GzipMinBytes' $NETEXEC_SRC; then
    echo "one /partial call per host: /partial replies are compressed again (see above); they are sent raw"
    exit 1
fi
echo "internal/netexec non-test lines: $(cat $NETEXEC_SRC | wc -l)"

# One combiner per /partial call: a worker folds every partition a call
# names into one pooled engine.Combiner and encodes it in place into a
# pooled buffer, so a host answer allocates nothing per partition or per
# group; the coordinator folds wire blobs with engine.MergeWire. A Merge of
# Partials or a MarshalBinary in non-test netexec is the per-partition
# answer coming back. The byte ceiling and the host wall run after the
# build.
echo "== one combiner per /partial call"
if grep -n '\.Merge(\|MarshalBinary(' $NETEXEC_SRC; then
    echo "one combiner per /partial call: non-test internal/netexec merges or marshals a Partial (see above); fold into the call's Combiner and encode with AppendBinary"
    exit 1
fi

# One pass per /partial call: a call is the worker's unit — one
# partition.Set.Partial, so one admission ticket, one compile and one brick
# pass over every partition it names. A per-partition loop in the worker
# edge is that unit splitting again; a combiner that accepts a second run
# is what such a loop needs; and the per-tenant quota, which no binary
# could switch on, must not come back with its header.
echo "== one pass per /partial call"
if grep -n 'partitionPartial' $NETEXEC_SRC; then
    echo "one pass per /partial call: the per-partition loop is back in non-test internal/netexec (see above)"
    exit 1
fi
SITES="$(cat $NETEXEC_SRC | grep -cF 'parts.Partial(' || true)"
if [ "$SITES" -gt 1 ]; then
    echo "one pass per /partial call: $SITES call sites of parts.Partial( in non-test internal/netexec, want at most 1:"
    grep -nF 'parts.Partial(' $NETEXEC_SRC
    exit 1
fi
if grep -n 'errCombinerShape\|PerTenantMax\|HeaderTenant' $NONTEST_GO; then
    echo "one pass per /partial call: a multi-run combiner or the per-tenant quota is back (see above)"
    exit 1
fi

# No per-brick partial cache: an ablation on every benchmark workload moved
# no end-to-end metric, so it was deleted with its key scopes, counters and
# config field rather than kept as a mode. What remains is the retired
# -brick-cache-bytes flag, which partition/flags.go still parses and
# ignores because the benchmark rig (internal/benchkit) still passes it.
echo "== no per-brick partial cache"
NONTEST_SRC="$(find internal cmd -name '*.go' ! -name '*_test.go' ! -path 'internal/benchkit/*')"
if grep -n 'BrickCache\|CacheScope\|brickCacheKey' $NONTEST_SRC; then
    echo "no per-brick partial cache: the cache or its plumbing is back (see above)"
    exit 1
fi
FLAG_SRC="$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/benchkit/*' ! -path './.bench_build/*' ! -path './internal/partition/flags.go')"
if grep -n 'brick-cache-bytes' $FLAG_SRC; then
    echo "no per-brick partial cache: -brick-cache-bytes is spelled outside internal/partition/flags.go (see above)"
    exit 1
fi
CACHES_SRC="$(ls internal/rescache/*.go internal/brick/dcache.go | grep -v _test.go)"
echo "internal/rescache + internal/brick/dcache.go non-test lines: $(cat $CACHES_SRC | wc -l)"

# No top-k pushdown: an ablation on the benchmark's dashboard workload, the
# only one with ORDER BY ... LIMIT queries, moved no end-to-end metric, so
# pruned partials, their bounds and the second phase were deleted rather
# than kept as a mode. Every query merges full partials. What remains is
# the retired -topk-overfetch flag, which cubrick-coordinator still parses
# and ignores because the benchmark rig (internal/benchkit) still passes it.
echo "== no top-k pushdown"
if grep -n 'TopK\|kPrime\|topk_keys\|X-Cubrick-TopK' $NONTEST_SRC; then
    echo "no top-k pushdown: pushdown or its plumbing is back (see above)"
    exit 1
fi
FLAG_SRC="$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/benchkit/*' ! -path './.bench_build/*' ! -path './cmd/cubrick-coordinator/main.go')"
if grep -n 'topk-overfetch' $FLAG_SRC; then
    echo "no top-k pushdown: -topk-overfetch is spelled outside cmd/cubrick-coordinator/main.go (see above)"
    exit 1
fi
CORE_SRC="$(ls internal/engine/*.go internal/partition/*.go internal/netexec/*.go internal/cubrick/*.go | grep -v _test.go)"
echo "internal/engine + partition + netexec + cubrick non-test lines: $(cat $CORE_SRC | wc -l)"

# One decoded copy per brick (PR 25): the decoded-column cache holds one
# entry per brick with a slot per column, shared by every projection.
# Keyed per projection shape it held ~9 copies of each brick under ad-hoc
# traffic and evicted on one visit in five. The entry lives on its brick —
# one pointer — and the cache holds its entries on a keyless recency list:
# no map, slice or string key of entries may come back, nor a key that
# takes a projection. The tests themselves run after the build.
echo "== one decoded copy per brick"
if ! grep -qE '^[[:space:]]+dec[[:space:]]+atomic\.Pointer\[decodedBrick\]$' internal/brick/brick.go; then
    echo "one decoded copy per brick: Brick no longer holds its one decoded entry as dec atomic.Pointer[decodedBrick] in internal/brick/brick.go; point this check at its successor"
    exit 1
fi
BRICK_SRC="$(ls internal/brick/*.go | grep -v _test.go)"
if grep -nE '(map\[[^]]*\]|\[\])\*?decodedBrick|func dcacheKey\(' $BRICK_SRC; then
    echo "one decoded copy per brick: decoded entries are keyed, or held in a map or slice, again (see above)"
    exit 1
fi
KEYED="$(awk '/^type (DecodedCache|decodedBrick) struct \{$/ { inside = 1; next } inside && /^}/ { inside = 0 } inside && /map\[|[[:space:]]string([[:space:]]|$)/ { print FILENAME ":" FNR ": " $0 }' internal/brick/dcache.go)"
if [ -n "$KEYED" ]; then
    echo "one decoded copy per brick: DecodedCache or decodedBrick holds a map or a string key again:"
    printf '%s\n' "$KEYED"
    exit 1
fi

# No worker dictionary plane: nothing on the networked plane assigns a
# string id (/loadbin takes uint32 ids, the coordinator encodes no
# strings), so the worker's /dict endpoint, its delta codec, the migration
# step that synced it and the -dict-capacity flag were deleted.
# Dictionaries live on the in-process cubrick.DB, which assigns the ids.
echo "== no worker dictionary plane"
if grep -nF -e '"/dict' -e 'ExportDelta' -e 'ApplyDelta' -e 'syncDicts' -e 'DictCapacity' -e 'HeaderDictVersion' $NONTEST_GO; then
    echo "no worker dictionary plane: the /dict plane or its plumbing is back in non-test code (see above)"
    exit 1
fi

# One deflater: a BestSpeed flate.NewWriter allocates about a megabyte,
# far more than a brick's SSD payload or most shard-transfer blobs, so
# eviction and export deflate through internal/brick's pooled writer. The
# pool's constructor is the only non-test place that may build one.
echo "== one deflater"
SITES="$(grep -n 'flate\.NewWriter(' $NONTEST_GO || true)"
POOL_SITES="$(awk '/^var deflaterPool = sync\.Pool\{New: func\(\) any \{$/ { inside = 1 } inside && /flate\.NewWriter\(/ { n++ } inside && /^}}/ { inside = 0 } END { print n + 0 }' internal/brick/ssd.go)"
if [ "$(printf '%s\n' "$SITES" | grep -c .)" != 1 ] || [ "$POOL_SITES" != 1 ]; then
    echo "one deflater: non-test code builds a flate writer outside deflaterPool's constructor in internal/brick/ssd.go; take one from the pool:"
    printf '%s\n' "$SITES"
    exit 1
fi

# One /load decoder: the front ends parse a /load body with
# netexec.DecodeLoad into flat row buffers. A command that decodes the
# body with encoding/json into a struct with a rows slice is the
# reflective, per-row-allocating decode coming back.
echo "== one /load decoder"
CMD_SRC="$(find cmd -name '*.go' ! -name '*_test.go')"
for f in $(grep -l 'json\.NewDecoder' $CMD_SRC); do
    if grep -nE '^[[:space:]]*Rows[[:space:]]+\[\]|json:"rows' "$f"; then
        echo "one /load decoder: $f decodes a rows struct with encoding/json (see above); parse /load bodies with netexec.DecodeLoad"
        exit 1
    fi
done

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test ./..."
go test ./...

echo "== go test -race (concurrency-bearing packages)"
go test -race ./internal/engine ./internal/brick ./internal/cubrick ./internal/netexec \
    ./internal/trace ./internal/metrics ./internal/admission ./internal/workload \
    ./internal/rescache ./internal/migrate ./internal/dict ./internal/cql \
    ./internal/partition

echo "== one decoded copy per brick: every shape served from the brick's one entry (-race)"
go test -race -count=1 -run 'TestDecodedCacheOneEntryPerBrick|TestDecodedCacheConcurrentVisitors|TestDecodedCacheOneEntryAfterIngests|TestDecodedEvictionClearsBrick|TestRetiredBricksLeaveDecodedCache' ./internal/brick
go test -race -count=1 -run 'TestDecodedCacheShapeSequenceEquivalence' ./internal/engine

echo "== encoded-execution differential harness against the oracle (-race)"
go test -race -count=1 -run 'TestEncodedDifferential|TestSkipperOracle|TestSelectionEdges|TestCompositeKeyEncodedViews' ./internal/engine

# The per-call allocation diet (PR 13): planning a scan into a task slice
# with room allocates nothing, a warm brick visit served by the decoded
# cache allocates nothing, and a /partial call's bytes must not grow with
# the groups it answers. The per-layer costs they guard are measured by
# BenchmarkPlanScan256 (internal/brick) and BenchmarkServePartialSmall,
# BenchmarkServePartialHost and BenchmarkServePartialHostServed
# (internal/netexec, -benchmem).
echo "== allocation ceilings (PlanScan 0 with room; a warm decoded visit 0; a /partial call's bytes flat in its group count)"
go test -count=1 -run 'TestPlanScanAllocs|TestDecodedHitAllocs' ./internal/brick
go test -count=1 -run 'TestServePartialBytesFlat' ./internal/netexec

# The brick pass keeps groups in index-addressed slabs: a group is an index
# into flat key and cell arrays, never an object of its own, so a brick's
# groups cost no allocation each. Sealed brick slabs come from a pool and go
# back to it once combined: run.go builds them only through
# groupSlab.pooledSeal. A partially covered brick's filter
# is selection vectors, column at a time: buildSel holds no per-row
# closure. The hazard test pins the five ways slab state can break an
# answer; the ceiling pins allocations per visited brick.
echo "== group state without per-group objects"
if grep -nE 'groupSlab\{|new\(groupSlab\)|\[\]cell|slabPool\.Get|\.(seal|clone|copied)\(' internal/engine/run.go; then
    echo "group state without per-group objects: run.go builds a slab outside groupSlab.pooledSeal (see above)"
    exit 1
fi
CLOSURES="$(awk '/^func \(c \*compiled\) buildSel\(/ { inside = 1; next } inside && /^}/ { inside = 0 } inside && /func[ (]/' internal/engine/encoded.go | wc -l)"
if [ "$CLOSURES" != 0 ]; then
    echo "group state without per-group objects: buildSel holds a closure again; filter column at a time (rowPred.keep/compact)"
    exit 1
fi
echo "internal/engine non-test lines: $(cat $ENGINE_SRC | wc -l)"
go test -race -count=1 -run 'TestGroupSlabHazards' ./internal/engine
go test -count=1 -run 'TestRunAllocsPerBrick' ./internal/engine

# A Partial is a group slab plus a key index too, so the
# coordinator's merge, finalize and reply allocate nothing per group or per
# row: no group object, string group key or map of groups anywhere in the
# engine. Every group outside the dense domain is found through groupIndex,
# so packedAcc and its map[uint64]int32 stay deleted and kernels.go holds
# no map at all. The ceilings pin the merge of 16 wide_fanout-shaped
# partials into a pooled partial with finalize, the /query reply (appended
# into a pooled buffer: as many allocations at 1 500 rows as at 15), and
# the hedge delay's quantile read.
echo "== partials without per-group objects"
if grep -nE 'newGroup\(|groupKey\(|map\[string\]\*group' $ENGINE_SRC; then
    echo "partials without per-group objects: a per-group object is back in internal/engine (see above)"
    exit 1
fi
if grep -n 'packedAcc' $ENGINE_SRC; then
    echo "partials without per-group objects: packedAcc is back in internal/engine (see above); find groups through groupIndex"
    exit 1
fi
if grep -n 'map\[' internal/engine/kernels.go; then
    echo "partials without per-group objects: kernels.go holds a map again (see above); find groups through groupIndex"
    exit 1
fi
go test -count=1 -run 'TestCoordinatorMergeAllocs' ./internal/engine
go test -count=1 -run 'TestQueryResponseAllocsFlat' ./cmd/cubrick-coordinator
go test -count=1 -run 'TestHistogramQuantileAllocs' ./internal/metrics

echo "== one /partial call per host: merge into unprobed partials, co-located calls, wire, host wall (-race)"
go test -race -count=1 -run 'TestMergeIntoUnprobedPartial' ./internal/engine
go test -race -count=1 -run 'TestGatherStrategies|TestPartialWireGolden|TestChaosSuccessRate|TestHostAnswerFoldsListOrder|TestPartialRejectsMixedSchemas' ./internal/netexec

echo "== chaos test (seeded fault injection, -race)"
go test -race -count=1 -run 'TestChaos' ./internal/netexec

echo "== migration e2e (scale-out under live ingest + chaos kills, -race)"
go test -race -count=1 -run 'TestScaleOut|TestMigration' ./internal/migrate

echo "== fuzz smoke (wire decode, 10s)"
go test -run '^$' -fuzz '^FuzzUnmarshalPartial$' -fuzztime 10s ./internal/engine

echo "== fuzz smoke (binary ingest decode, 10s)"
go test -run '^$' -fuzz '^FuzzLoadBin$' -fuzztime 10s ./internal/netexec

echo "== fuzz smoke (/load JSON decode against encoding/json, 10s)"
go test -run '^$' -fuzz '^FuzzDecodeLoad$' -fuzztime 10s ./internal/netexec

echo "== fuzz smoke (brick blob decode, 10s)"
go test -run '^$' -fuzz '^FuzzDecodeBrick$' -fuzztime 10s ./internal/brick

echo "== fuzz smoke (shard transfer decode, 10s)"
go test -run '^$' -fuzz '^FuzzTransfer$' -fuzztime 10s ./internal/brick

echo "== fuzz smoke (brick column decoders, 5s each)"
go test -run '^$' -fuzz '^FuzzDecodeDimColumn$' -fuzztime 5s ./internal/brick
go test -run '^$' -fuzz '^FuzzDecodeMetricColumn$' -fuzztime 5s ./internal/brick

# Coverage gate over the query path and its observability plane. Baseline
# when the gate was introduced (PR 4): netexec 89.6%, engine 88.8%,
# trace 95.9%, metrics 74.1%; brick added in PR 5. The floor is
# deliberately below baseline so honest refactors don't trip it; raising
# the floor is fine, lowering it needs a written reason.
echo "== coverage gate (>= 70%)"
for pkg in ./internal/netexec ./internal/engine ./internal/trace ./internal/metrics ./internal/brick \
    ./internal/admission ./internal/rescache ./internal/migrate \
    ./internal/dict ./internal/cql ./internal/partition; do
    # Keep the whole output: when a test fails there is no coverage
    # figure, and the failure itself is what has to be read.
    out="$(go test -cover "$pkg" 2>&1 || true)"
    line="$(printf '%s\n' "$out" | tail -1)"
    echo "$line"
    pct="$(printf '%s\n' "$line" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p')"
    if [ -z "$pct" ]; then
        printf '%s\n' "$out"
        echo "coverage gate: no coverage figure for $pkg"
        exit 1
    fi
    if [ "$(awk -v p="$pct" 'BEGIN { print (p+0 < 70.0) ? 1 : 0 }')" = 1 ]; then
        echo "coverage gate: $pkg at $pct% is below the 70% floor"
        exit 1
    fi
done

echo "OK"
