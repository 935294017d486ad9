package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"cubrick/internal/brick"
)

// The brick pass: the engine's one way to answer a query. A pass is one
// plan snapshot over one or more stores of a schema (one ScanTask per
// brick, the morsel; a task carries its store), a cursor, and a pool of
// workers that claim tasks off the cursor and visit each brick exactly once
// — one decode, one filter evaluation, one batch walk — sealing its groups
// into the task's result slot.
//
// Determinism: a brick's rows fold in row order into its slot, and the
// slots combine in task order — stores in argument order, bricks in
// ascending brick-id order within each — into the caller's Combiner, so
// the finalized result is bit-identical (float summation order and HLL
// register state included) however the workers were scheduled; the tests'
// brick-ordered reference, internal/oracle, fixes the same order.

// Opts are the per-call options of Run. The zero value reads compressed
// bricks through the store's decoded-column cache on GOMAXPROCS workers.
type Opts struct {
	// NoCache bypasses the storage layer's decoded-column cache for this
	// run: it is neither consulted nor filled.
	NoCache bool
	// Parallelism is the pass's worker count (0 = GOMAXPROCS).
	Parallelism int
}

// Timings reports where one run spent its wall time, feeding the
// worker-side trace spans: Plan covers query compilation and scan planning
// (pruning), Scan the brick pass (kernel work and any decompression),
// Combine the deterministic per-brick merge.
type Timings struct {
	Plan, Scan, Combine time.Duration
}

// Total returns the summed stage durations.
func (t Timings) Total() time.Duration { return t.Plan + t.Scan + t.Combine }

// ExecInfo describes how one run executed.
type ExecInfo struct {
	Timings
	// ScanStats is the encoded-scan accounting over the bricks this result
	// consumed.
	ScanStats
	// RowsScanned counts the rows the run folded (post-filter),
	// BricksVisited and BricksPruned the bricks its plan visited and
	// skipped via bound pruning, and Decompressions the visited bricks that
	// paid a transient decode, each over all of the run's stores.
	RowsScanned, BricksVisited, BricksPruned, Decompressions int64
}

// testClaimHook, when set by tests, runs after a pass worker claims a task
// and before it visits the brick, so a test can hold a pass mid-flight at a
// known cursor. Engine tests do not run in parallel.
var testClaimHook func(task int)

// errNoStore is Run's answer to a call naming no store.
var errNoStore = errors.New("engine: Run over no store")

// Run executes the query over the stores, which share one schema, with
// brick-level parallelism and vectorized aggregation kernels, and folds
// the answer into cb, which must be empty: one compile, one plan over
// every store's bricks and one pass, whose bricks combine into cb's groups
// in task order — stores in argument order, ascending brick id within
// each — with each brick's rows in row order. A cancelled ctx returns
// ctx.Err() at once, even while a worker is inside a brick, and no worker
// claims a brick after that; a failed run may leave cb partly combined, so
// the caller resets it.
func Run(ctx context.Context, q *Query, o Opts, cb *Combiner, stores ...*brick.Store) (ExecInfo, error) {
	var info ExecInfo
	if err := ctx.Err(); err != nil {
		return info, err
	}
	if len(stores) == 0 {
		return info, errNoStore
	}
	planStart := time.Now()
	c, err := compile(stores[0].Schema(), q, o)
	if err != nil {
		return info, err
	}
	if err := cb.bind(c); err != nil {
		return info, err
	}
	p := &pass{c: c, done: make(chan struct{})}
	for _, st := range stores {
		plan, err := st.PlanScan(c.filter)
		if err != nil {
			return info, err
		}
		if p.tasks == nil {
			p.tasks = plan.Tasks
		} else {
			p.tasks = append(p.tasks, plan.Tasks...)
		}
		p.pruned += plan.Pruned
	}
	p.results = make([]taskResult, len(p.tasks))
	p.start(o.Parallelism)
	scanStart := time.Now()
	info.Plan = scanStart.Sub(planStart)
	err = p.wait(ctx)
	combineStart := time.Now()
	info.Scan = combineStart.Sub(scanStart)
	if err != nil {
		return info, err
	}
	p.combine(&info, cb)
	info.Combine = time.Since(combineStart)
	return info, nil
}

// taskResult is one brick's accumulated output.
type taskResult struct {
	slab         *groupSlab // the brick's sealed groups, pooled, owned by this slot
	rowsScanned  int64
	decompressed bool
	stats        ScanStats
}

// pass is one morsel pass over the bricks of a run's stores.
type pass struct {
	c       *compiled
	tasks   []brick.ScanTask
	pruned  int
	results []taskResult // one slot per task

	mu     sync.Mutex
	cursor int   // next unclaimed task index
	err    error // first task error, or the caller's ctx.Err(); stops claiming

	done chan struct{} // closed once every worker has returned
}

// start launches the pass's workers, at most one per task, and closes
// done once all of them have returned. A goroutine of the pass spawns and
// waits for them, not the caller: with the caller spawning them and the
// last worker closing done, adhoc_scan lost about 15% of its qps on a
// two-core host.
func (p *pass) start(workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := min(workers, len(p.tasks))
	go func() {
		var wg sync.WaitGroup
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.work()
			}()
		}
		wg.Wait()
		close(p.done)
	}()
}

// fail records the pass's first error; workers stop claiming once it is
// set.
func (p *pass) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

// work is one pass worker, the only claim loop: claim a task, visit the
// brick. It stops claiming once the tasks run out, a visit fails, or the
// caller cancelled.
func (p *pass) work() {
	es := encScratchPool.Get().(*encScratch)
	defer encScratchPool.Put(es)
	for {
		p.mu.Lock()
		if p.err != nil || p.cursor >= len(p.tasks) {
			p.mu.Unlock()
			return
		}
		i := p.cursor
		p.cursor++
		p.mu.Unlock()
		if hook := testClaimHook; hook != nil {
			hook(i)
		}
		if err := p.visitBrick(i, es); err != nil {
			p.fail(err)
			return
		}
	}
}

// visitBrick scans task i into results[i]: blob-bounds prune, then one
// decode / filter / walk of the brick (through the store's decoded-column
// cache unless the run bypasses it) observed into one kernel over the
// worker's reused buffers, sealed into a pooled slab.
func (p *pass) visitBrick(i int, es *encScratch) error {
	t := &p.tasks[i]
	c := p.c
	acc := es.kernels.pick(c, t.Bounds)
	// The visit accumulates into a local and stores the slot once: workers
	// fill neighbouring slots, which share cache lines.
	var res taskResult
	// Bounds pruning: if the encoded blob's column stats (FOR base/width,
	// dictionary min/max) prove no row can match, the brick is done without
	// any decode.
	if !t.Full && c.filter != nil && t.PruneEncoded(c.filter) {
		res.stats.BricksStatsPruned++
	} else {
		res.decompressed = t.Compressed()
		proj := &c.proj
		if t.Full {
			proj = &c.projFull
		}
		err := t.VisitBatch(proj, func(b *brick.Batch) error {
			if t.Full || c.filter == nil {
				res.rowsScanned += int64(b.Rows)
				// Encoded fast path (see encoded.go): grouped columns that
				// arrived as runs or dictionary codes feed the kernel without
				// ever materializing.
				c.observeFull(acc, b, es)
				return nil
			}
			sel, all := c.buildSel(b, t.Bounds, es.sel[:0], es, &res.stats)
			es.sel = sel
			if all {
				sel = nil
				res.rowsScanned += int64(b.Rows)
			} else {
				res.rowsScanned += int64(len(sel))
			}
			acc.observeBatch(b.Dims, b.Metrics, b.Rows, sel)
			return nil
		})
		if err != nil {
			return err
		}
	}
	// Seal: the brick's groups move into a pooled slab and the kernel's
	// buffers are free for the worker's next brick.
	res.slab = acc.slab().pooledSeal()
	p.results[i] = res
	return nil
}

// wait blocks until the pass completes and returns its error, or stops the
// pass and returns ctx.Err() when ctx cancels first. The error is recorded
// under the lock workers claim under, so no task is claimed after wait
// returns it.
func (p *pass) wait(ctx context.Context) error {
	select {
	case <-p.done:
	case <-ctx.Done():
		p.fail(ctx.Err())
		return ctx.Err()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// combine folds the per-task slabs in task order into cb's kernel, which
// bind picked over the whole schema domain (dense when the GROUP BY's
// domain is small enough), and sums the per-task accounting into info and
// cb's counters.
func (p *pass) combine(info *ExecInfo, cb *Combiner) {
	acc := cb.acc
	dst := acc.slab()
	// Room for every brick's groups up front, so the combiner never
	// regrows; a dense one cannot hold more groups than its domain has
	// points.
	n := 0
	for i := range p.results {
		n += p.results[i].slab.len()
	}
	if d, ok := acc.(*denseAcc); ok {
		n = min(n, len(d.slots)-dst.len())
	}
	dst.reserve(n)
	for i := range p.results {
		res := &p.results[i]
		absorb(acc, res.slab)
		res.slab.release()
		res.slab = nil
		info.RowsScanned += res.rowsScanned
		if res.decompressed {
			info.Decompressions++
		}
		info.ScanStats.add(res.stats)
	}
	info.BricksVisited, info.BricksPruned = int64(len(p.tasks)), int64(p.pruned)
	cb.counts = [4]int64{info.RowsScanned, info.BricksVisited, info.BricksPruned, info.Decompressions}
}
