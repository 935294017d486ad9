package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cubrick/internal/brick"
)

// Parallel execution: one ScanTask per brick is the morsel. A worker pool
// sized by GOMAXPROCS pulls tasks off a shared atomic counter; each task
// accumulates into its own kernel, and the per-brick kernels are merged
// in ascending brick-id order once all workers finish. Because every
// brick's rows are folded in a fixed order and the per-brick results are
// combined in a fixed order, the finalized result is deterministic and
// independent of scheduling or worker count.

// taskResult is one brick's accumulated output.
type taskResult struct {
	acc          accumulator
	rowsScanned  int64
	decompressed bool
	cached       bool
	stats        ScanStats
	err          error
}

// execOpts threads the optional cache plumbing through a solo parallel
// execution; the zero value reproduces the plain uncached behavior.
type execOpts struct {
	parallelism int
	// cache + scope enable the per-brick partial cache (see brickcache.go).
	cache *BrickCache
	scope string
	// noDecodedCache bypasses the storage layer's decoded-column cache
	// (the per-request "X-Cubrick-Cache: off" escape hatch).
	noDecodedCache bool
	// hits/misses, when non-nil, receive brick-cache lookup counts.
	hits, misses *atomic.Int64
	// scan, when non-nil, receives the execution's encoded-scan accounting
	// (runs/codes touched vs skipped, bricks stats-pruned).
	scan *ScanStats
}

// Timings reports where one partition execution spent its wall time,
// feeding the worker-side trace spans: Plan covers query compilation and
// scan planning (pruning), Scan the parallel brick visit (kernel work and
// any decompression), Combine the deterministic per-brick merge.
type Timings struct {
	Plan, Scan, Combine time.Duration
}

// Total returns the summed stage durations.
func (t Timings) Total() time.Duration { return t.Plan + t.Scan + t.Combine }

// ExecuteParallel runs the query over one partition's store with
// brick-level parallelism and vectorized aggregation kernels. It
// finalizes to the same Result as the serial Execute.
func ExecuteParallel(store *brick.Store, q *Query) (*Partial, error) {
	return ExecuteParallelN(store, q, runtime.GOMAXPROCS(0))
}

// ExecuteParallelTimed is ExecuteParallel with a per-stage wall-time
// breakdown for tracing.
func ExecuteParallelTimed(store *brick.Store, q *Query) (*Partial, Timings, error) {
	return executeParallelTimed(store, q, runtime.GOMAXPROCS(0))
}

// ExecuteParallelN is ExecuteParallel with an explicit worker count.
func ExecuteParallelN(store *brick.Store, q *Query, parallelism int) (*Partial, error) {
	p, _, err := executeParallelTimed(store, q, parallelism)
	return p, err
}

// ExecuteParallelCachedTimed is ExecuteParallelTimed with the per-brick
// partial cache consulted before each brick scan and filled after it,
// returning the cache hit/miss counts alongside the timings. scope keys
// the store (typically the partition name) so stores sharing one cache
// never collide.
func ExecuteParallelCachedTimed(store *brick.Store, q *Query, cache *BrickCache, scope string) (*Partial, Timings, int, int, error) {
	var hits, misses atomic.Int64
	p, tm, err := executeParallelOpts(store, q, execOpts{
		parallelism: runtime.GOMAXPROCS(0),
		cache:       cache,
		scope:       scope,
		hits:        &hits,
		misses:      &misses,
	})
	return p, tm, int(hits.Load()), int(misses.Load()), err
}

// ExecuteParallelStats is ExecuteParallel with the encoded-scan accounting
// (runs/codes touched vs skipped by the predicate skippers, bricks pruned
// from blob bounds) returned alongside the partial.
func ExecuteParallelStats(store *brick.Store, q *Query) (*Partial, ScanStats, error) {
	var st ScanStats
	p, _, err := executeParallelOpts(store, q, execOpts{
		parallelism: runtime.GOMAXPROCS(0),
		scan:        &st,
	})
	return p, st, err
}

// ExecuteParallelNoCacheTimed runs the query solo with every cache level
// bypassed — no brick-partial cache (solo runs only use one when asked)
// and the decoded-column cache neither consulted nor filled. It is the
// execution path behind per-request cache bypass.
func ExecuteParallelNoCacheTimed(store *brick.Store, q *Query) (*Partial, Timings, error) {
	return executeParallelOpts(store, q, execOpts{
		parallelism:    runtime.GOMAXPROCS(0),
		noDecodedCache: true,
	})
}

func executeParallelTimed(store *brick.Store, q *Query, parallelism int) (*Partial, Timings, error) {
	return executeParallelOpts(store, q, execOpts{parallelism: parallelism})
}

func executeParallelOpts(store *brick.Store, q *Query, opts execOpts) (*Partial, Timings, error) {
	var tm Timings
	parallelism := opts.parallelism
	planStart := time.Now()
	c, err := compile(store.Schema(), q)
	if err != nil {
		return nil, tm, err
	}
	if opts.noDecodedCache {
		c.proj.NoCache = true
		c.projFull.NoCache = true
		c.projFullSerial.NoCache = true
		c.projPartSerial.NoCache = true
	}
	var foldKey string
	if opts.cache != nil {
		foldKey = FoldKey(q)
	}
	plan, err := store.PlanScan(c.filter)
	if err != nil {
		return nil, tm, err
	}
	scanStart := time.Now()
	tm.Plan = scanStart.Sub(planStart)
	tasks := plan.Tasks
	results := make([]taskResult, len(tasks))

	workers := parallelism
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers < 1 {
		workers = 1
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// sel is reused across this worker's tasks; non-nil so an
			// empty selection is distinguishable from "all rows pass".
			sel := make([]int32, 0, 1024)
			es := &encScratch{}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				t := &tasks[i]
				res := &results[i]
				if opts.cache != nil {
					if acc, rows, ok := opts.cache.get(opts.scope, foldKey, t.BrickID, t.Epoch()); ok {
						// Cache hit: the snapshot stands in for the whole
						// scan. Heat still accrues — reuse keeps a brick
						// exactly as hot as scanning it would.
						t.Touch()
						res.acc = acc
						res.rowsScanned = rows
						res.cached = true
						continue
					}
				}
				res.acc = newTaskAccumulator(c, t.Bounds)
				if !t.Full && c.filter != nil && !disableSkippers {
					// Bounds pruning: if the encoded blob's column stats
					// (FOR base/width, dictionary min/max) prove no row can
					// match, the brick is done without any decode.
					if pruned, epoch := t.PruneEncoded(c.filter); pruned {
						res.stats.BricksStatsPruned++
						opts.cache.put(opts.scope, foldKey, t.BrickID, epoch, res.acc, 0)
						continue
					}
				}
				res.decompressed = t.Compressed()
				proj := &c.proj
				if t.Full {
					proj = &c.projFull
				}
				epoch, err := t.VisitBatchEpoch(proj, func(b *brick.Batch) error {
					if t.Full || c.filter == nil {
						res.rowsScanned += int64(b.Rows)
						// Encoded fast path: grouped columns that arrived as
						// runs or dictionary codes feed the kernel without
						// ever materializing (see encoded.go).
						v := c.prepareFull(b, res.acc, es)
						c.observeFull(res.acc, b, &v, es)
						return nil
					}
					if disableSkippers {
						sel = sel[:0]
						for r := 0; r < b.Rows; r++ {
							if c.filter.MatchesAt(b.Dims, r) {
								sel = append(sel, int32(r))
							}
						}
					} else {
						var all bool
						sel, all = c.buildSel(b, sel[:0], es, &res.stats)
						if all {
							res.rowsScanned += int64(b.Rows)
							res.acc.observeBatch(b.Dims, b.Metrics, b.Rows, nil)
							return nil
						}
					}
					res.rowsScanned += int64(len(sel))
					res.acc.observeBatch(b.Dims, b.Metrics, b.Rows, sel)
					return nil
				})
				res.err = err
				if err == nil {
					// Key the fill on the epoch observed during the visit —
					// never the pre-scan read — so an ingest that lands
					// mid-scan can only push the entry under a key future
					// lookups (which will see the newer epoch) already miss.
					opts.cache.put(opts.scope, foldKey, t.BrickID, epoch, res.acc, res.rowsScanned)
				}
			}
		}()
	}
	wg.Wait()
	combineStart := time.Now()
	tm.Scan = combineStart.Sub(scanStart)

	p := NewPartial(q)
	p.BricksVisited = int64(len(tasks))
	p.BricksPruned = int64(plan.Pruned)
	if len(tasks) == 0 {
		return p, tm, nil
	}
	// Deterministic combine: fold per-brick kernels in brick-id order into
	// a fresh map-based accumulator (dense per-brick kernels cannot absorb
	// other bricks — their slot arrays are sized to one brick's bounds).
	base := newAccumulator(c)
	for i := range results {
		res := &results[i]
		if res.err != nil {
			return nil, tm, res.err
		}
		base.mergeFrom(res.acc)
		p.RowsScanned += res.rowsScanned
		if res.decompressed {
			p.Decompressions++
		}
		if opts.scan != nil {
			opts.scan.add(res.stats)
		}
		if res.cached {
			if opts.hits != nil {
				opts.hits.Add(1)
			}
		} else if opts.cache != nil && opts.misses != nil {
			opts.misses.Add(1)
		}
	}
	base.addTo(p)
	tm.Combine = time.Since(combineStart)
	return p, tm, nil
}
