package engine

import (
	"context"
	"errors"
	"runtime"
	"slices"
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
	// Dim is the dimension table's store a joined query (Query.Join) reads;
	// a query without a join ignores it.
	Dim *brick.Store
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
// the caller resets it. A joined query (q.Join) reads the dimension store
// o.Dim and makes the same pass below its join.
func Run(ctx context.Context, q *Query, o Opts, cb *Combiner, stores ...*brick.Store) (ExecInfo, error) {
	var info ExecInfo
	if err := ctx.Err(); err != nil {
		return info, err
	}
	if len(stores) == 0 {
		return info, errNoStore
	}
	planStart := time.Now()
	// A joined query's pass groups below the join into a combiner of its
	// own, which regroup folds into cb (join.go).
	dst := cb
	var j *joinPlan
	if q.Join != nil {
		var err error
		if j, err = planJoin(q, stores[0].Schema(), o.Dim); err != nil {
			return info, err
		}
		if err := cb.bind(j.out); err != nil {
			return info, err
		}
		q, dst = j.inner, new(Combiner)
	}
	c, err := compile(stores[0].Schema(), q, o)
	if err != nil {
		return info, err
	}
	if err := dst.bind(c); err != nil {
		return info, err
	}
	p := newPass(c)
	for _, st := range stores {
		var pruned int
		p.tasks, pruned = st.PlanScan(p.tasks, c.filter)
		p.pruned += pruned
	}
	p.results = slices.Grow(p.results, len(p.tasks))[:len(p.tasks)]
	p.start(o.Parallelism)
	scanStart := time.Now()
	info.Plan = scanStart.Sub(planStart)
	finished, err := p.wait(ctx)
	combineStart := time.Now()
	info.Scan = combineStart.Sub(scanStart)
	if err != nil {
		if finished {
			p.recycle()
		}
		return info, err
	}
	p.combine(&info, dst)
	p.recycle()
	if j != nil {
		j.regroup(dst, cb)
	}
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

// pass is one morsel pass over the bricks of a run's stores. Passes come
// from passPool with their task and result slices, so a run plans and
// scans into slots an earlier run grew.
type pass struct {
	c       *compiled
	tasks   []brick.ScanTask
	pruned  int
	results []taskResult // one slot per task

	mu     sync.Mutex
	cursor int   // next unclaimed task index
	err    error // first task error, or the caller's ctx.Err(); stops claiming

	workers sync.WaitGroup
	// done receives one value once every worker has returned. It is
	// buffered, so the pass finishes whether or not anyone waits, and a
	// pass whose value was received has no goroutine left and an empty
	// channel: it can be reused.
	done chan struct{}
}

// passPool recycles passes that finished. A pass cancelled while its
// workers still run is never put back: a worker may yet claim a task or
// write a result slot of it.
var passPool = sync.Pool{New: func() any { return &pass{done: make(chan struct{}, 1)} }}

// maxPooledTasks bounds the task slots a pooled pass keeps: a run over
// more bricks than that (several times a wide host call's) grows slices
// the pool would otherwise pin for the life of the process.
const maxPooledTasks = 1 << 13

// newPass returns an empty pass of c from the pool.
func newPass(c *compiled) *pass {
	p := passPool.Get().(*pass)
	p.c = c
	return p
}

// recycle clears a finished pass, so the pool pins no brick, store, slab
// or query, and returns it to the pool unless it grew past maxPooledTasks.
// Only a pass whose done value was received may be recycled.
func (p *pass) recycle() {
	if cap(p.tasks) > maxPooledTasks || cap(p.results) > maxPooledTasks {
		return
	}
	clear(p.tasks)
	clear(p.results)
	p.tasks, p.results = p.tasks[:0], p.results[:0]
	p.c, p.pruned, p.cursor, p.err = nil, 0, 0, nil
	passPool.Put(p)
}

// start launches the pass's workers, at most one per task, and signals
// done once all of them have returned. A goroutine of the pass spawns and
// waits for them, not the caller: with the caller spawning them and the
// last worker signalling done, adhoc_scan lost about 15% of its qps on a
// two-core host.
func (p *pass) start(workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	go p.spawn(min(workers, len(p.tasks)))
}

// spawn runs n workers and signals done once they have all returned.
func (p *pass) spawn(n int) {
	p.workers.Add(n)
	for w := 0; w < n; w++ {
		go p.work()
	}
	p.workers.Wait()
	p.done <- struct{}{}
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
	defer p.workers.Done()
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

// visitBrick scans task i into results[i] under one hold of the brick's
// lock: blob-bounds prune, or one decode / filter / walk of the brick
// (through the store's decoded-column cache unless the run bypasses it)
// observed into one kernel over the worker's reused buffers, sealed into a
// pooled slab.
func (p *pass) visitBrick(i int, es *encScratch) error {
	t := &p.tasks[i]
	c := p.c
	acc := es.kernels.pick(c, t.Bounds)
	// The visit accumulates into a local and stores the slot once: workers
	// fill neighbouring slots, which share cache lines.
	var res taskResult
	// Bounds pruning: if the encoded blob's column stats (FOR base/width,
	// dictionary min/max) prove no row can match, the brick is done without
	// any decode. A fully covered brick has nothing to prune.
	proj, prune := &c.proj, c.filter
	if t.Full {
		proj, prune = &c.projFull, nil
	}
	v, err := t.VisitBatch(proj, prune, func(b *brick.Batch) error {
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
	if v.Pruned {
		res.stats.BricksStatsPruned++
	} else {
		res.decompressed = v.Compressed
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
// returns it. finished reports that every worker had returned: only then
// may the pass be recycled.
func (p *pass) wait(ctx context.Context) (finished bool, err error) {
	select {
	case <-p.done:
	case <-ctx.Done():
		p.fail(ctx.Err())
		return false, ctx.Err()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return true, p.err
}

// combine folds the per-task slabs in task order into cb's kernel, which
// bind picked over the whole schema domain (dense when the GROUP BY's
// domain is small enough), and sums the per-task accounting into info and
// cb's counters.
func (p *pass) combine(info *ExecInfo, cb *Combiner) {
	acc := cb.acc
	// A dense combiner cannot hold more groups than its domain has points,
	// so it makes room for every brick's groups up front and never
	// regrows. Any other grows by doubling: the bricks' group counts sum
	// every group once per brick it appears in, several times the answer
	// on a wide call, and a combiner kept across calls keeps what it grew.
	if d, ok := acc.(*denseAcc); ok {
		n := 0
		for i := range p.results {
			n += p.results[i].slab.len()
		}
		dst := acc.slab()
		dst.reserve(min(n, len(d.slots)-dst.len()))
	}
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
