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

// Scan scheduler: the per-store component that owns morsel-style brick
// passes. Instead of every query running its own one-shot ExecuteParallel,
// queries submit to the store's Scheduler; concurrent queries with the
// same fold key (QuerySignature + normalized filter set, see signature.go)
// attach to the in-flight pass at its current brick cursor and share the
// remaining brick visits — one decode, one filter evaluation, one batch
// walk feeding every subscriber's own accumulator. Bricks the late
// subscriber missed ([0, joinedAt)) are covered by a catch-up pass over
// the same plan snapshot, so every subscriber sees exactly the brick set
// the pass planned.
//
// Determinism: each subscriber keeps a private accumulator per brick task,
// filled in the same per-brick row order a solo run would use, and combines
// them in ascending brick-id order — the identical procedure to
// ExecuteParallel, so folded results are bit-identical to solo execution
// (including float summation order and HLL register state).

// errPassAborted is returned to a subscriber whose shared pass stopped
// early because every other subscriber detached before the scan finished.
// Scheduler.Execute retries on it; it never escapes to callers with a live
// context.
var errPassAborted = errors.New("engine: shared scan pass aborted")

// SchedulerConfig parameterizes a store's scan scheduler.
type SchedulerConfig struct {
	// Parallelism is the worker count per brick pass (0 = GOMAXPROCS).
	Parallelism int
	// NoFold disables query folding: every query runs its own pass. The
	// zero value folds, which is the production default.
	NoFold bool
	// Metrics, when set, receives the fold counters
	// engine.fold.{attached,solo,catchup_bricks}.
	Metrics *metrics.Registry
	// BrickCache, when set, caches per-brick accumulator snapshots keyed
	// on (CacheScope, fold key, brick id, brick ingest epoch): passes skip
	// re-scanning bricks that are unchanged since an earlier pass of the
	// same shape. Results stay bit-identical to uncached execution.
	BrickCache *BrickCache
	// CacheScope isolates this store's keys when BrickCache is shared by
	// several stores (typically the partition name).
	CacheScope string
}

// FoldStats reports a scheduler's folding activity.
type FoldStats struct {
	// Solo counts queries that started their own pass.
	Solo int64
	// Attached counts queries that joined an in-flight pass.
	Attached int64
	// CatchupBricks counts bricks covered by catch-up passes.
	CatchupBricks int64
}

// ExecInfo describes how one scheduled execution ran.
type ExecInfo struct {
	Timings
	// Folded reports whether the query attached to an in-flight pass.
	Folded bool
	// CatchupBricks is how many bricks the catch-up pass covered.
	CatchupBricks int
	// CacheHits / CacheMisses count brick-cache lookups over the bricks
	// this result consumed (always zero without a configured BrickCache).
	CacheHits, CacheMisses int
}

// Scheduler owns the scan passes over one store.
type Scheduler struct {
	store *brick.Store
	cfg   SchedulerConfig

	mu     sync.Mutex
	passes map[string]*scanPass

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

func (s *Scheduler) parallelism() int {
	if s.cfg.Parallelism > 0 {
		return s.cfg.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (s *Scheduler) count(name string, delta int64) {
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Counter(name).Add(delta)
	}
}

// Execute runs the query through the scheduler, folding into an in-flight
// pass when one with the same fold key is running. It finalizes to the
// same Result as a solo ExecuteParallel.
func (s *Scheduler) Execute(ctx context.Context, q *Query) (*Partial, error) {
	p, _, err := s.ExecuteInfo(ctx, q)
	return p, err
}

// ExecuteInfo is Execute with per-stage timings and fold information.
func (s *Scheduler) ExecuteInfo(ctx context.Context, q *Query) (*Partial, ExecInfo, error) {
	// A pass aborts only when all its subscribers cancel; a live
	// subscriber that attached during the abort window simply retries on
	// a fresh pass. Two aborts in a row means pathological churn — fall
	// back to an unshared run, which cannot abort.
	for attempt := 0; attempt < 2; attempt++ {
		p, info, err := s.executeOnce(ctx, q)
		if errors.Is(err, errPassAborted) && ctx.Err() == nil {
			continue
		}
		return p, info, err
	}
	var info ExecInfo
	p, tm, err := s.executeSolo(q)
	info.Timings = tm
	return p, info, err
}

// executeSolo runs one unshared pass with the scheduler's cache wiring.
func (s *Scheduler) executeSolo(q *Query) (*Partial, Timings, error) {
	return executeParallelOpts(s.store, q, execOpts{
		parallelism: s.parallelism(),
		cache:       s.cfg.BrickCache,
		scope:       s.cfg.CacheScope,
	})
}

func (s *Scheduler) executeOnce(ctx context.Context, q *Query) (*Partial, ExecInfo, error) {
	var info ExecInfo
	if err := ctx.Err(); err != nil {
		return nil, info, err
	}
	planStart := time.Now()
	c, err := compile(s.store.Schema(), q)
	if err != nil {
		return nil, info, err
	}

	if s.cfg.NoFold {
		var hits, misses atomic.Int64
		p, tm, err := executeParallelOpts(s.store, q, execOpts{
			parallelism: s.parallelism(),
			cache:       s.cfg.BrickCache,
			scope:       s.cfg.CacheScope,
			hits:        &hits,
			misses:      &misses,
		})
		info.Timings = tm
		info.CacheHits = int(hits.Load())
		info.CacheMisses = int(misses.Load())
		return p, info, err
	}

	key := FoldKey(q)
	s.mu.Lock()
	if pass := s.passes[key]; pass != nil {
		if sub := pass.attach(q); sub != nil {
			s.mu.Unlock()
			s.attached.Add(1)
			s.catchup.Add(int64(sub.joinedAt))
			s.count("engine.fold.attached", 1)
			s.count("engine.fold.catchup_bricks", int64(sub.joinedAt))
			info.Folded = true
			info.CatchupBricks = sub.joinedAt
			scanStart := time.Now()
			info.Plan = scanStart.Sub(planStart)
			if err := pass.catchUp(ctx, sub); err != nil {
				return nil, info, err
			}
			p, err := pass.wait(ctx, sub)
			combineStart := time.Now()
			info.Scan = combineStart.Sub(scanStart)
			if err != nil {
				return nil, info, err
			}
			info.CacheHits, info.CacheMisses = pass.cacheStats(sub)
			info.Combine = time.Since(combineStart)
			return p, info, nil
		}
	}
	// No joinable pass: plan and register a new one while still holding
	// the scheduler lock, so a concurrent same-key query attaches instead
	// of planning its own pass.
	plan, err := s.store.PlanScan(c.filter)
	if err != nil {
		s.mu.Unlock()
		return nil, info, err
	}
	pass := &scanPass{
		sched:      s,
		key:        key,
		c:          c,
		tasks:      plan.Tasks,
		pruned:     plan.Pruned,
		taskRows:   make([]int64, len(plan.Tasks)),
		taskDecmp:  make([]bool, len(plan.Tasks)),
		taskCached: make([]bool, len(plan.Tasks)),
		done:       make(chan struct{}),
	}
	sub := pass.newSub(q)
	pass.subs = append(pass.subs, sub)
	pass.active = 1
	s.passes[key] = pass
	s.mu.Unlock()
	s.solo.Add(1)
	s.count("engine.fold.solo", 1)

	scanStart := time.Now()
	info.Plan = scanStart.Sub(planStart)
	go pass.run()
	p, err := pass.wait(ctx, sub)
	combineStart := time.Now()
	info.Scan = combineStart.Sub(scanStart)
	if err != nil {
		return nil, info, err
	}
	info.CacheHits, info.CacheMisses = pass.cacheStats(sub)
	info.Combine = time.Since(combineStart)
	return p, info, nil
}

// foldSub is one query subscribed to a pass.
type foldSub struct {
	q *Query
	// joinedAt is the pass cursor at attach time: the shared pass feeds
	// this subscriber tasks [joinedAt, len(tasks)); the catch-up pass
	// covers [0, joinedAt).
	joinedAt int
	// accs holds the per-task accumulators, one slot per pass task.
	accs []accumulator
	// rows, decmp and cached mirror taskRows/taskDecmp/taskCached for
	// catch-up tasks, which this subscriber visits itself.
	rows   []int64
	decmp  []bool
	cached []bool
	// canceled marks a detached subscriber; workers skip feeding it.
	canceled atomic.Bool
}

// scanPass is one shared morsel pass over a store's bricks.
type scanPass struct {
	sched  *Scheduler
	key    string
	c      *compiled
	tasks  []brick.ScanTask
	pruned int

	// taskRows, taskDecmp and taskCached record per-task scan stats from
	// the shared pass; identical for every subscriber, matching a solo run.
	taskRows   []int64
	taskDecmp  []bool
	taskCached []bool

	mu     sync.Mutex
	cursor int // next unclaimed task index
	subs   []*foldSub
	active int   // subscribers not yet canceled
	err    error // first task error; aborts the pass for all subscribers

	done chan struct{}
}

func (p *scanPass) newSub(q *Query) *foldSub {
	return &foldSub{
		q:      q,
		accs:   make([]accumulator, len(p.tasks)),
		rows:   make([]int64, len(p.tasks)),
		decmp:  make([]bool, len(p.tasks)),
		cached: make([]bool, len(p.tasks)),
	}
}

// attach joins a query to the pass at the current cursor. It returns nil
// when the pass can no longer accept subscribers (finished claiming,
// failed, or fully detached). Caller holds sched.mu.
func (p *scanPass) attach(q *Query) *foldSub {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil || p.active == 0 || p.cursor >= len(p.tasks) {
		return nil
	}
	sub := p.newSub(q)
	sub.joinedAt = p.cursor
	p.subs = append(p.subs, sub)
	p.active++
	return sub
}

// run drives the shared pass worker pool and finishes the pass.
func (p *scanPass) run() {
	workers := p.sched.parallelism()
	if workers > len(p.tasks) {
		workers = len(p.tasks)
	}
	if workers < 1 {
		workers = 1
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
	p.sched.mu.Lock()
	if p.sched.passes[p.key] == p {
		delete(p.sched.passes, p.key)
	}
	p.sched.mu.Unlock()
	p.mu.Lock()
	if p.err == nil && p.cursor < len(p.tasks) {
		p.err = errPassAborted
	}
	p.mu.Unlock()
	close(p.done)
}

// work is one pass worker: claim a task, snapshot live subscribers, visit
// the brick once, feed every subscriber.
func (p *scanPass) work() {
	sel := make([]int32, 0, 1024)
	es := &encScratch{}
	var subsBuf []*foldSub
	for {
		p.mu.Lock()
		if p.err != nil || p.active == 0 || p.cursor >= len(p.tasks) {
			p.mu.Unlock()
			return
		}
		i := p.cursor
		p.cursor++
		subsBuf = subsBuf[:0]
		for _, sub := range p.subs {
			if !sub.canceled.Load() {
				subsBuf = append(subsBuf, sub)
			}
		}
		p.mu.Unlock()
		if hook := p.sched.testClaimHook; hook != nil {
			hook(i)
		}
		if err := p.visitTask(i, subsBuf, &sel, es); err != nil {
			p.mu.Lock()
			if p.err == nil {
				p.err = err
			}
			p.mu.Unlock()
			return
		}
	}
}

// visitTask scans one brick and feeds each subscriber's private
// accumulator. The brick is decoded, filtered, and walked exactly once
// regardless of subscriber count — that shared visit is the entire win.
func (p *scanPass) visitTask(i int, subs []*foldSub, selBuf *[]int32, es *encScratch) error {
	if len(subs) == 0 {
		// Every subscriber detached since the claim: nobody consumes the
		// task, and there is no accumulator to scan into or to cache.
		return nil
	}
	t := &p.tasks[i]
	c := p.c
	bc := p.sched.cfg.BrickCache
	if bc != nil {
		if acc, cachedRows, ok := bc.get(p.sched.cfg.CacheScope, p.key, t.BrickID, t.Epoch()); ok {
			// The snapshot stands in for the scan for every live
			// subscriber; each gets its own deep copy because combiners
			// take ownership of (and later mutate) what they merge.
			t.Touch()
			p.taskRows[i] = cachedRows
			p.taskCached[i] = true
			for j, sub := range subs {
				if j == 0 {
					sub.accs[i] = acc
				} else {
					sub.accs[i] = acc.clone()
				}
			}
			return nil
		}
	}
	accs := make([]accumulator, len(subs))
	for j := range subs {
		accs[j] = newTaskAccumulator(c, t.Bounds)
	}
	if !t.Full && c.filter != nil && !disableSkippers {
		// Bounds pruning: the encoded blob's column stats can prove the
		// whole brick empty under the filter without any decode.
		if pruned, epoch := t.PruneEncoded(c.filter); pruned {
			for j, sub := range subs {
				sub.accs[i] = accs[j]
			}
			bc.put(p.sched.cfg.CacheScope, p.key, t.BrickID, epoch, accs[0], 0)
			return nil
		}
	}
	p.taskDecmp[i] = t.Compressed()
	proj := &c.proj
	if t.Full {
		proj = &c.projFull
	}
	var rows int64
	epoch, err := t.VisitBatchEpoch(proj, func(b *brick.Batch) error {
		if t.Full || c.filter == nil {
			rows += int64(b.Rows)
			// Encoded fast path (see encoded.go): classify the batch once —
			// every subscriber of a pass shares one compiled query, so the
			// per-batch run intersection or scratch materialization is paid
			// once regardless of subscriber count.
			v := c.prepareFull(b, accs[0], es)
			for j := range accs {
				c.observeFull(accs[j], b, &v, es)
			}
			return nil
		}
		sel := (*selBuf)[:0]
		if disableSkippers {
			for r := 0; r < b.Rows; r++ {
				if c.filter.MatchesAt(b.Dims, r) {
					sel = append(sel, int32(r))
				}
			}
		} else {
			var all bool
			sel, all = c.buildSel(b, sel, es, nil)
			if all {
				*selBuf = sel
				rows += int64(b.Rows)
				for j := range accs {
					accs[j].observeBatch(b.Dims, b.Metrics, b.Rows, nil)
				}
				return nil
			}
		}
		*selBuf = sel
		rows += int64(len(sel))
		for j := range accs {
			accs[j].observeBatch(b.Dims, b.Metrics, b.Rows, sel)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.taskRows[i] = rows
	for j, sub := range subs {
		sub.accs[i] = accs[j]
	}
	// All subscriber accumulators were fed identically; snapshot the first.
	// The key uses the epoch observed during the visit, so a mid-scan ingest
	// can only file the entry under a key future lookups already miss.
	bc.put(p.sched.cfg.CacheScope, p.key, t.BrickID, epoch, accs[0], rows)
	return nil
}

// catchUp covers tasks [0, sub.joinedAt) — the bricks the shared pass
// claimed before this subscriber attached — with the subscriber's own
// worker pool over the same plan snapshot.
func (p *scanPass) catchUp(ctx context.Context, sub *foldSub) error {
	n := sub.joinedAt
	if n == 0 {
		return nil
	}
	workers := p.sched.parallelism()
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var failed atomic.Bool
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		failed.Store(true)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sel := make([]int32, 0, 1024)
			es := &encScratch{}
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				if err := p.catchUpTask(i, sub, &sel, es); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		sub.detach(p)
		return firstErr
	}
	return nil
}

// catchUpTask visits one missed brick for the subscriber alone, recording
// the same per-task stats the shared pass records for shared tasks.
func (p *scanPass) catchUpTask(i int, sub *foldSub, selBuf *[]int32, es *encScratch) error {
	t := &p.tasks[i]
	c := p.c
	bc := p.sched.cfg.BrickCache
	if bc != nil {
		if acc, cachedRows, ok := bc.get(p.sched.cfg.CacheScope, p.key, t.BrickID, t.Epoch()); ok {
			t.Touch()
			sub.rows[i] = cachedRows
			sub.cached[i] = true
			sub.accs[i] = acc
			return nil
		}
	}
	acc := newTaskAccumulator(c, t.Bounds)
	if !t.Full && c.filter != nil && !disableSkippers {
		if pruned, epoch := t.PruneEncoded(c.filter); pruned {
			sub.accs[i] = acc
			bc.put(p.sched.cfg.CacheScope, p.key, t.BrickID, epoch, acc, 0)
			return nil
		}
	}
	sub.decmp[i] = t.Compressed()
	proj := &c.proj
	if t.Full {
		proj = &c.projFull
	}
	var rows int64
	epoch, err := t.VisitBatchEpoch(proj, func(b *brick.Batch) error {
		if t.Full || c.filter == nil {
			rows += int64(b.Rows)
			v := c.prepareFull(b, acc, es)
			c.observeFull(acc, b, &v, es)
			return nil
		}
		sel := (*selBuf)[:0]
		if disableSkippers {
			for r := 0; r < b.Rows; r++ {
				if c.filter.MatchesAt(b.Dims, r) {
					sel = append(sel, int32(r))
				}
			}
		} else {
			var all bool
			sel, all = c.buildSel(b, sel, es, nil)
			if all {
				*selBuf = sel
				rows += int64(b.Rows)
				acc.observeBatch(b.Dims, b.Metrics, b.Rows, nil)
				return nil
			}
		}
		*selBuf = sel
		rows += int64(len(sel))
		acc.observeBatch(b.Dims, b.Metrics, b.Rows, sel)
		return nil
	})
	if err != nil {
		return err
	}
	sub.rows[i] = rows
	sub.accs[i] = acc
	bc.put(p.sched.cfg.CacheScope, p.key, t.BrickID, epoch, acc, rows)
	return nil
}

// detach removes the subscriber from the live set. Workers stop feeding
// it, and the pass aborts claiming once no live subscribers remain.
func (sub *foldSub) detach(p *scanPass) {
	// Flag and count change under one hold of p.mu, the lock work() claims
	// under, so a claim never sees a live count with no live subscriber.
	p.mu.Lock()
	if !sub.canceled.Swap(true) {
		p.active--
	}
	p.mu.Unlock()
}

// wait blocks until the pass completes (or ctx cancels), then combines
// the subscriber's per-task accumulators in ascending brick-id order —
// the identical combine a solo ExecuteParallel performs.
func (p *scanPass) wait(ctx context.Context, sub *foldSub) (*Partial, error) {
	select {
	case <-p.done:
	case <-ctx.Done():
		sub.detach(p)
		return nil, ctx.Err()
	}
	p.mu.Lock()
	err := p.err
	p.mu.Unlock()
	if err != nil {
		return nil, err
	}

	out := NewPartial(sub.q)
	out.BricksVisited = int64(len(p.tasks))
	out.BricksPruned = int64(p.pruned)
	if len(p.tasks) == 0 {
		return out, nil
	}
	base := newAccumulator(p.c)
	for i := range p.tasks {
		base.mergeFrom(sub.accs[i])
		if i < sub.joinedAt {
			out.RowsScanned += sub.rows[i]
			if sub.decmp[i] {
				out.Decompressions++
			}
		} else {
			out.RowsScanned += p.taskRows[i]
			if p.taskDecmp[i] {
				out.Decompressions++
			}
		}
	}
	base.addTo(out)
	return out, nil
}

// cacheStats counts brick-cache hits and misses over the bricks this
// subscriber's result consumed (catch-up tasks the subscriber visited
// itself, shared tasks from the pass).
func (p *scanPass) cacheStats(sub *foldSub) (hits, misses int) {
	if p.sched.cfg.BrickCache == nil {
		return 0, 0
	}
	for i := range p.tasks {
		cached := p.taskCached[i]
		if i < sub.joinedAt {
			cached = sub.cached[i]
		}
		if cached {
			hits++
		} else {
			misses++
		}
	}
	return hits, misses
}
