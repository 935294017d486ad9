package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cubrick/internal/brick"
	"cubrick/internal/metrics"
)

// Scan scheduler: the per-store component that owns every brick pass. A
// pass is one plan snapshot (one ScanTask per brick, the morsel), a cursor,
// and a pool of workers that claim tasks off the cursor and visit each
// brick exactly once — one decode, one filter evaluation, one batch walk —
// whose per-brick groups every subscriber receives a private copy of.
// There are four ways into that one loop:
//
//   - publish: no pass with the query's fold key (QuerySignature +
//     normalized filter set, see signature.go) is running, so the query
//     plans one and registers it for others to join;
//   - attach: a pass with the fold key is in flight, so the query joins it
//     at its current cursor and shares the remaining brick visits;
//   - catch-up: the bricks an attacher missed ([0, joinedAt)) are covered
//     by a private pass over the head of the same plan snapshot, so every
//     subscriber sees exactly the brick set the pass planned;
//   - unshared: a private pass with one subscriber that is never
//     registered, so nobody can join it.
//
// Determinism: each subscriber keeps one result slot per task, filled in
// the brick's row order, and combines the slots in ascending brick-id
// order into a fresh accumulator. Every brick's rows are folded in a fixed
// order and the per-brick results are combined in a fixed order, so the
// finalized result is bit-identical to the serial Execute (including float
// summation order and HLL register state) whichever way the query entered
// and however the workers were scheduled.

// errPassAborted is returned to a subscriber whose shared pass stopped
// early because every other subscriber detached before the scan finished.
// Scheduler.Run retries on it; it never escapes to callers with a live
// context.
var errPassAborted = errors.New("engine: shared scan pass aborted")

// SchedulerConfig parameterizes a store's scan scheduler.
type SchedulerConfig struct {
	// Parallelism is the worker count per brick pass (0 = GOMAXPROCS).
	Parallelism int
	// Metrics, when set, receives the fold counters
	// engine.fold.{attached,solo,catchup_bricks}.
	Metrics *metrics.Registry
}

// Opts are the per-call options of Scheduler.Run. The zero value folds
// the query into an in-flight pass of its fold key when there is one and
// reads compressed bricks through the store's decoded-column cache.
type Opts struct {
	// Unshared runs the query on a private pass: it neither joins an
	// in-flight pass nor lets later queries join its own.
	Unshared bool
	// NoCache bypasses the storage layer's decoded-column cache for this
	// run: it is neither consulted nor filled. It implies Unshared: a
	// shared pass decodes with its publisher's projection, which reads
	// through the cache.
	NoCache bool

	// noSkippers turns off the per-encoding filter skippers and the
	// encoded-brick stats pruning: filter columns materialize and
	// predicates evaluate row-at-a-time. noEncodedKernels turns off
	// encoding-aware GROUP BY aggregation: the projection materializes the
	// group columns instead. Test and benchmark baselines only; a shared
	// pass runs with its publisher's settings.
	noSkippers, noEncodedKernels bool
}

// FoldStats reports a scheduler's folding activity.
type FoldStats struct {
	// Solo counts queries that published their own pass.
	Solo int64
	// Attached counts queries that joined an in-flight pass.
	Attached int64
	// CatchupBricks counts bricks covered by catch-up passes.
	CatchupBricks int64
}

// Timings reports where one run spent its wall time, feeding the
// worker-side trace spans: Plan covers query compilation and scan planning
// (pruning) or attaching, Scan the brick pass (kernel work and any
// decompression), Combine the deterministic per-brick merge.
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
	// Folded reports whether the query attached to an in-flight pass.
	Folded bool
	// CatchupBricks is how many bricks the catch-up pass covered.
	CatchupBricks int
	// Rollup is the outcome of the rollup attempt the serving layer made
	// before (or instead of) the brick pass; Scheduler.Run leaves it zero.
	Rollup RollupInfo
}

// Scheduler owns the scan passes over one store.
type Scheduler struct {
	store *brick.Store
	cfg   SchedulerConfig

	mu     sync.Mutex
	passes map[string]*scanPass // published passes by fold key

	solo     atomic.Int64
	attached atomic.Int64
	catchup  atomic.Int64

	// testClaimHook, when set by tests, runs after a pass worker claims a
	// task and before it visits the brick — the hook lets tests hold a
	// pass mid-flight at a known cursor.
	testClaimHook func(task int)
}

// NewScheduler builds a scan scheduler for the store.
func NewScheduler(store *brick.Store, cfg SchedulerConfig) *Scheduler {
	return &Scheduler{store: store, cfg: cfg, passes: make(map[string]*scanPass)}
}

// Stats returns cumulative folding counters.
func (s *Scheduler) Stats() FoldStats {
	return FoldStats{
		Solo:          s.solo.Load(),
		Attached:      s.attached.Load(),
		CatchupBricks: s.catchup.Load(),
	}
}

func (s *Scheduler) count(name string, delta int64) {
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Counter(name).Add(delta)
	}
}

// Run executes the query over the store with brick-level parallelism and
// vectorized aggregation kernels, returning a partial that finalizes to
// the same Result as the serial Execute. A cancelled ctx stops the run
// claiming bricks and returns ctx.Err().
func (s *Scheduler) Run(ctx context.Context, q *Query, o Opts) (*Partial, ExecInfo, error) {
	// A published pass aborts only when all its subscribers cancel; a live
	// subscriber that attached during the abort window simply retries on a
	// fresh pass. Two aborts in a row means pathological churn — fall back
	// to an unshared run, which only its own caller can abort.
	for attempt := 0; ; attempt++ {
		o.Unshared = o.Unshared || o.NoCache || attempt == 2
		p, info, err := s.runOnce(ctx, q, o)
		if errors.Is(err, errPassAborted) && ctx.Err() == nil {
			continue
		}
		return p, info, err
	}
}

func (s *Scheduler) runOnce(ctx context.Context, q *Query, o Opts) (*Partial, ExecInfo, error) {
	var info ExecInfo
	if err := ctx.Err(); err != nil {
		return nil, info, err
	}
	planStart := time.Now()
	c, err := compile(s.store.Schema(), q, o)
	if err != nil {
		return nil, info, err
	}
	var key string
	if !o.Unshared {
		key = FoldKey(q)
	}

	pass, sub, folded, err := s.enter(q, c, key, !o.Unshared)
	if err != nil {
		return nil, info, err
	}
	if info.Folded = folded; folded {
		info.CatchupBricks = sub.joinedAt
		s.attached.Add(1)
		s.catchup.Add(int64(sub.joinedAt))
		s.count("engine.fold.attached", 1)
		s.count("engine.fold.catchup_bricks", int64(sub.joinedAt))
	} else {
		if pass.published {
			s.solo.Add(1)
			s.count("engine.fold.solo", 1)
		}
		go pass.run()
	}
	scanStart := time.Now()
	info.Plan = scanStart.Sub(planStart)
	if n := sub.joinedAt; n > 0 {
		// Catch-up: a private pass over the tasks the shared pass claimed
		// before this subscriber attached, filling the head of the same
		// result slots while the shared pass fills the tail.
		cp := &scanPass{sched: s, key: pass.key, c: pass.c, tasks: pass.tasks[:n], done: make(chan struct{})}
		cs := cp.subscribe(q, sub.results[:n])
		go cp.run()
		if err := cp.wait(ctx, cs); err != nil {
			pass.detach(sub)
			return nil, info, err
		}
	}
	err = pass.wait(ctx, sub)
	combineStart := time.Now()
	info.Scan = combineStart.Sub(scanStart)
	if err != nil {
		return nil, info, err
	}
	p := pass.combine(sub, &info)
	info.Combine = time.Since(combineStart)
	return p, info, nil
}

// enter subscribes the query to the pass it will run on: the in-flight
// pass published under key when share is set and that pass still accepts
// subscribers (folded), else a newly planned pass, published when share is
// set.
func (s *Scheduler) enter(q *Query, c *compiled, key string, share bool) (pass *scanPass, sub *foldSub, folded bool, err error) {
	if share {
		// Held across planning and publishing, so a concurrent same-key
		// query attaches instead of planning its own pass.
		s.mu.Lock()
		defer s.mu.Unlock()
		if pass = s.passes[key]; pass != nil {
			if sub = pass.attach(q); sub != nil {
				return pass, sub, true, nil
			}
		}
	}
	plan, err := s.store.PlanScan(c.filter)
	if err != nil {
		return nil, nil, false, err
	}
	pass = &scanPass{sched: s, key: key, c: c, tasks: plan.Tasks, pruned: plan.Pruned,
		published: share, done: make(chan struct{})}
	sub = pass.subscribe(q, make([]taskResult, len(pass.tasks)))
	if share {
		s.passes[key] = pass
	}
	return pass, sub, false, nil
}

// taskResult is one brick's accumulated output for one subscriber.
type taskResult struct {
	slab         *groupSlab // the brick's sealed groups, pooled, owned by this slot
	rowsScanned  int64
	decompressed bool
	stats        ScanStats
}

// foldSub is one query subscribed to a pass.
type foldSub struct {
	q *Query
	// joinedAt is the pass cursor at attach time: the shared pass feeds
	// this subscriber tasks [joinedAt, len(tasks)); the catch-up pass
	// covers [0, joinedAt).
	joinedAt int
	// results holds one slot per pass task.
	results []taskResult
	// canceled marks a detached subscriber; workers skip feeding it.
	canceled atomic.Bool
}

// scanPass is one morsel pass over a store's bricks.
type scanPass struct {
	sched *Scheduler
	// key is the fold key, the index in Scheduler.passes when published.
	key       string
	c         *compiled
	tasks     []brick.ScanTask
	pruned    int
	published bool

	mu     sync.Mutex
	cursor int // next unclaimed task index
	subs   []*foldSub
	active int   // subscribers not yet canceled
	err    error // first task error; aborts the pass for all subscribers

	done chan struct{}
}

// subscribe adds a live subscriber whose per-task results land in results.
// Caller holds p.mu or owns the pass exclusively (not yet running).
func (p *scanPass) subscribe(q *Query, results []taskResult) *foldSub {
	sub := &foldSub{q: q, results: results}
	p.subs = append(p.subs, sub)
	p.active++
	return sub
}

// attach joins a query to the running pass at the current cursor. It
// returns nil when the pass can no longer accept subscribers (finished
// claiming, failed, or fully detached). Caller holds sched.mu.
func (p *scanPass) attach(q *Query) *foldSub {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil || p.active == 0 || p.cursor >= len(p.tasks) {
		return nil
	}
	sub := p.subscribe(q, make([]taskResult, len(p.tasks)))
	sub.joinedAt = p.cursor
	return sub
}

// run drives the pass worker pool and finishes the pass.
func (p *scanPass) run() {
	workers := p.sched.cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(p.tasks) {
		workers = len(p.tasks)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.work()
		}()
	}
	wg.Wait()

	// Deregister, then mark the pass state before releasing waiters. A
	// pass that stopped with unclaimed tasks (all subscribers canceled)
	// must not look successful to a subscriber that squeezed in during
	// the shutdown window.
	if p.published {
		p.sched.mu.Lock()
		if p.sched.passes[p.key] == p {
			delete(p.sched.passes, p.key)
		}
		p.sched.mu.Unlock()
	}
	p.mu.Lock()
	if p.err == nil && p.cursor < len(p.tasks) {
		p.err = errPassAborted
	}
	p.mu.Unlock()
	close(p.done)
}

// work is one pass worker, the only claim loop: claim a task, snapshot the
// live subscribers, visit the brick once, feed every subscriber. It stops
// claiming once the tasks run out, a visit fails, or no live subscriber
// remains (every caller cancelled).
func (p *scanPass) work() {
	es := encScratchPool.Get().(*encScratch)
	defer encScratchPool.Put(es)
	var subs []*foldSub
	for {
		p.mu.Lock()
		if p.err != nil || p.active == 0 || p.cursor >= len(p.tasks) {
			p.mu.Unlock()
			return
		}
		i := p.cursor
		p.cursor++
		subs = subs[:0]
		for _, sub := range p.subs {
			if !sub.canceled.Load() {
				subs = append(subs, sub)
			}
		}
		p.mu.Unlock()
		if hook := p.sched.testClaimHook; hook != nil {
			hook(i)
		}
		if err := p.visitBrick(i, subs, es); err != nil {
			p.mu.Lock()
			if p.err == nil {
				p.err = err
			}
			p.mu.Unlock()
			return
		}
	}
}

// visitBrick scans task i and fills results[i] of every given subscriber:
// blob-bounds prune, then one decode / filter / walk of the brick (through
// the store's decoded-column cache unless the pass bypasses it) observed
// into one kernel, sealed into a slab every subscriber gets a copy of. The
// brick is visited exactly once regardless of subscriber count — that
// shared visit is the entire win of folding.
func (p *scanPass) visitBrick(i int, subs []*foldSub, es *encScratch) error {
	if len(subs) == 0 {
		// Every subscriber detached since the claim: nobody consumes the
		// task, so the brick is neither decoded nor scanned.
		return nil
	}
	t := &p.tasks[i]
	c := p.c
	// Every subscriber shares the pass's compiled query, so one kernel —
	// over the worker's reused buffers — observes the brick for all of them.
	acc := es.kernels.pick(c, t.Bounds)
	var res taskResult // what every subscriber's slot receives
	// Bounds pruning: if the encoded blob's column stats (FOR base/width,
	// dictionary min/max) prove no row can match, the brick is done without
	// any decode.
	if !t.Full && c.filter != nil && !c.noSkippers && t.PruneEncoded(c.filter) {
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
			sel, all := es.sel[:0], false
			if c.noSkippers {
				for r := 0; r < b.Rows; r++ {
					if c.filter.MatchesAt(b.Dims, r) {
						sel = append(sel, int32(r))
					}
				}
			} else {
				sel, all = c.buildSel(b, t.Bounds, sel, es, &res.stats)
			}
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
	for j, sub := range subs {
		sub.results[i] = res
		if j > 0 {
			// Combining hands a slab's cells to the combiner, which mutates
			// them: every subscriber owns a copy.
			sub.results[i].slab = res.slab.pooledClone()
		}
	}
	return nil
}

// detach removes the subscriber from the live set. Workers stop feeding
// it, and the pass stops claiming once no live subscriber remains.
func (p *scanPass) detach(sub *foldSub) {
	// Flag and count change under one hold of p.mu, the lock work() claims
	// under, so a claim never sees a live count with no live subscriber.
	p.mu.Lock()
	if !sub.canceled.Swap(true) {
		p.active--
	}
	p.mu.Unlock()
}

// wait blocks until the pass completes, or detaches the subscriber when
// ctx cancels first.
func (p *scanPass) wait(ctx context.Context, sub *foldSub) error {
	select {
	case <-p.done:
	case <-ctx.Done():
		p.detach(sub)
		return ctx.Err()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// combine folds the subscriber's per-task slabs in ascending brick-id
// order into a combiner picked over the whole schema domain (dense when
// the GROUP BY's domain is small enough), turns it into the partial and
// sums the per-task accounting into the partial and info.
func (p *scanPass) combine(sub *foldSub, info *ExecInfo) *Partial {
	var ks kernelSet
	base := ks.pick(p.c, p.c.domain)
	// Room for every brick's groups up front, so the combiner never
	// regrows; a dense one cannot hold more groups than its domain has
	// points.
	n := 0
	for i := range sub.results {
		n += sub.results[i].slab.len()
	}
	if d, ok := base.(*denseAcc); ok {
		n = min(n, len(d.slots))
	}
	base.slab().reserve(n)
	var rows, decompressions int64
	for i := range sub.results {
		res := &sub.results[i]
		absorb(base, res.slab)
		res.slab.release()
		res.slab = nil
		rows += res.rowsScanned
		if res.decompressed {
			decompressions++
		}
		info.ScanStats.add(res.stats)
	}
	out := base.slab().partial(sub.q)
	out.RowsScanned, out.Decompressions = rows, decompressions
	out.BricksVisited, out.BricksPruned = int64(len(p.tasks)), int64(p.pruned)
	return out
}
