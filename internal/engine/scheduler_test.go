package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cubrick/internal/brick"
	"cubrick/internal/metrics"
	"cubrick/internal/randutil"
)

// holdClaim parks the first pass worker that claims task k until release is
// called, and closes claimed once it is parked. Every pass of the scheduler
// runs the hook — a catch-up pass re-claims the tasks below an attacher's
// cursor — so only the first claim of k is held. claims counts every claim.
func holdClaim(s *Scheduler, k int) (claimed chan struct{}, release func(), claims *atomic.Int64) {
	claimed = make(chan struct{})
	gate := make(chan struct{})
	claims = new(atomic.Int64)
	var held atomic.Bool
	s.testClaimHook = func(i int) {
		claims.Add(1)
		if i == k && held.CompareAndSwap(false, true) {
			close(claimed)
			<-gate
		}
	}
	return claimed, func() { close(gate) }, claims
}

// TestSchedulerAttachMidPass pins the fold mechanics deterministically:
// with a single pass worker held after claiming brick 0, a second
// identical query must attach at cursor 1, catch up exactly one brick,
// and still produce the bit-identical result.
func TestSchedulerAttachMidPass(t *testing.T) {
	s := loadStore(t)
	reg := metrics.NewRegistry()
	sched := NewScheduler(s, SchedulerConfig{Parallelism: 1, Metrics: reg})
	q := &Query{Aggregates: []Aggregate{{Func: Sum, Metric: "events"}, {Func: Count}},
		GroupBy: []string{"app"}}
	want := reference(t, q, s)

	claimed, release, _ := holdClaim(sched, 0)

	type out struct {
		p    *Partial
		info ExecInfo
		err  error
	}
	creator := make(chan out, 1)
	go func() {
		p, info, err := runPartial(sched, context.Background(), q, Opts{})
		creator <- out{p, info, err}
	}()
	<-claimed // the pass has claimed brick 0 and is held mid-visit

	follower := make(chan out, 1)
	go func() {
		// Same fold key via a cosmetically different query: folding keys
		// on semantics, not on aliases/order/limit.
		q2 := &Query{Aggregates: []Aggregate{
			{Func: Sum, Metric: "events", Alias: "total"}, {Func: Count}},
			GroupBy: []string{"app"}, OrderBy: "total", Desc: true}
		p, info, err := runPartial(sched, context.Background(), q2, Opts{})
		follower <- out{p, info, err}
	}()
	waitFor(t, func() bool { return sched.Stats().Attached == 1 })
	release()

	cr := <-creator
	fo := <-follower
	if cr.err != nil || fo.err != nil {
		t.Fatalf("errors: creator %v follower %v", cr.err, fo.err)
	}
	if cr.info.Folded {
		t.Fatal("creator reported folded")
	}
	if !fo.info.Folded {
		t.Fatal("follower did not fold")
	}
	if fo.info.CatchupBricks != 1 {
		t.Fatalf("follower catch-up bricks = %d, want 1", fo.info.CatchupBricks)
	}
	if err := Oracle.Equal(want, cr.p.Finalize()); err != nil {
		t.Fatalf("creator result: %v", err)
	}
	st := sched.Stats()
	if st.Solo != 1 || st.Attached != 1 || st.CatchupBricks != 1 {
		t.Fatalf("stats = %+v, want solo=1 attached=1 catchup=1", st)
	}
	cv := reg.CounterValues()
	if cv["engine.fold.attached"] != 1 || cv["engine.fold.solo"] != 1 || cv["engine.fold.catchup_bricks"] != 1 {
		t.Fatalf("fold counters = %v", cv)
	}
	// Bit-identical accumulator state: the follower, which ordered by total
	// desc under another alias, finalizes to the oracle for its own query.
	q2 := &Query{Aggregates: []Aggregate{
		{Func: Sum, Metric: "events", Alias: "total"}, {Func: Count}},
		GroupBy: []string{"app"}, OrderBy: "total", Desc: true}
	if err := Oracle.Equal(reference(t, q2, s), fo.p.Finalize()); err != nil {
		t.Fatalf("follower result: %v", err)
	}
}

// TestSchedulerDetachOnCancel: a subscriber that cancels mid-pass detaches
// without disturbing the remaining subscriber, and a pass whose every
// subscriber cancels aborts without poisoning later queries.
func TestSchedulerDetachOnCancel(t *testing.T) {
	s := loadStore(t)
	sched := NewScheduler(s, SchedulerConfig{Parallelism: 1})
	q := &Query{Aggregates: []Aggregate{{Func: Sum, Metric: "events"}}, GroupBy: []string{"region"}}
	want := reference(t, q, s)

	claimed, release, _ := holdClaim(sched, 0)
	creator := make(chan error, 1)
	go func() {
		p, _, err := runPartial(sched, context.Background(), q, Opts{})
		if err == nil {
			err = Oracle.Equal(want, p.Finalize())
		}
		creator <- err
	}()
	<-claimed

	ctx, cancel := context.WithCancel(context.Background())
	follower := make(chan error, 1)
	go func() {
		_, _, err := runPartial(sched, ctx, q, Opts{})
		follower <- err
	}()
	waitFor(t, func() bool { return sched.Stats().Attached == 1 })
	cancel()
	// The canceled follower must return promptly even though the pass is
	// still held at brick 0.
	select {
	case err := <-follower:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("follower error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled follower did not detach")
	}
	release()
	if err := <-creator; err != nil {
		t.Fatalf("creator after follower detach: %v", err)
	}

	// All-subscriber cancellation: the pass aborts, and the next query
	// (retried internally onto a fresh pass) still succeeds.
	sched2 := NewScheduler(s, SchedulerConfig{Parallelism: 1})
	claimed2, release2, _ := holdClaim(sched2, 0)
	ctx2, cancel2 := context.WithCancel(context.Background())
	solo := make(chan error, 1)
	go func() {
		_, _, err := runPartial(sched2, ctx2, q, Opts{})
		solo <- err
	}()
	<-claimed2
	cancel2()
	if err := <-solo; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled creator error = %v", err)
	}
	release2()
	p, info, err := runPartial(sched2, context.Background(), q, Opts{})
	if err != nil {
		t.Fatalf("query after aborted pass: %v", err)
	}
	if info.Folded {
		t.Fatal("fresh query folded into aborted pass")
	}
	if err := Oracle.Equal(want, p.Finalize()); err != nil {
		t.Fatalf("result after aborted pass: %v", err)
	}
}

// solePass returns the scheduler's one in-flight pass.
func solePass(s *Scheduler) *scanPass {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.passes {
		return p
	}
	return nil
}

// TestSchedulerZeroSubscriberTask: a pass worker that claims a task with no
// live subscriber — which detach used to allow by flagging the subscriber
// before decrementing the live count — must skip it: there is no
// accumulator to scan into (fully covered bricks indexed accs[0] and took
// the worker process down) and nobody to decode the brick for.
func TestSchedulerZeroSubscriberTask(t *testing.T) {
	s := loadStore(t)
	if _, _, err := s.EnsureBudget(0, 0.5); err != nil {
		t.Fatal(err)
	}
	if s.CompressedBrickCount() < 2 {
		t.Fatalf("%d compressed bricks: nothing left to claim after task 0", s.CompressedBrickCount())
	}
	dc := brick.NewDecodedCache(1 << 20)
	s.SetDecodedCache(dc)
	sched := NewScheduler(s, SchedulerConfig{Parallelism: 1})
	// No filter: every brick is fully covered.
	q := &Query{Aggregates: []Aggregate{{Func: Sum, Metric: "events"}}, GroupBy: []string{"region"}}

	ctx, cancel := context.WithCancel(context.Background())
	gaveUp := make(chan struct{})
	sched.testClaimHook = func(i int) {
		if i != 0 {
			return
		}
		// The old detach's first half: flagged, but still counted live, so
		// the worker keeps claiming.
		p := solePass(sched) // in flight: this hook runs on its worker
		p.mu.Lock()
		p.subs[0].canceled.Store(true)
		p.mu.Unlock()
		cancel()
		<-gaveUp
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := runPartial(sched, ctx, q, Opts{})
		close(gaveUp)
		done <- err
	}()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query returned %v", err)
	}
	waitFor(t, func() bool {
		sched.mu.Lock()
		defer sched.mu.Unlock()
		return len(sched.passes) == 0
	})
	// Task 0 was claimed with a live subscriber and read its brick through
	// the decoded cache; the remaining tasks had none and must not have.
	if st := dc.Stats(); st.Hits+st.Misses != 1 {
		t.Fatalf("zero-subscriber tasks reached the decoded cache: %+v", st)
	}

	sched.testClaimHook = nil
	p, _, err := runPartial(sched, context.Background(), q, Opts{})
	if err != nil {
		t.Fatalf("query after the abandoned pass: %v", err)
	}
	if err := Oracle.Equal(reference(t, q, s), p.Finalize()); err != nil {
		t.Fatal(err)
	}
}

// TestFoldedSerialEquivalence is the path-matrix wall. Each generated
// (schema, data, tier mix, query) trial, with metrics whose sums round,
// first races N concurrent queries with equal fold keys through one
// scheduler (some attaching mid-pass and catching up), then walks every
// way into the brick pass deterministically —
//
//	{unshared, publishing subscriber, attached mid-pass with catch-up,
//	 attached mid-pass after the publisher cancelled}
//	× {first run, second run on the same scheduler}
//	× {decoded cache on, bypassed}
//
// — and every run must equal the oracle bit for bit, float summation
// order, HLL CountDistinct register state and scan counters included.
func TestFoldedSerialEquivalence(t *testing.T) {
	rnd := randutil.New(20260807)
	const subscribers = 6
	for trial := 0; trial < 25; trial++ {
		s, q := Oracle.NewTrial(t, rnd, false)
		s.SetDecodedCache(brick.NewDecodedCache(8 << 20))
		want := reference(t, q, s)

		sched := NewScheduler(s, SchedulerConfig{Parallelism: 2})
		errs := make([]error, subscribers)
		var wg sync.WaitGroup
		for i := 0; i < subscribers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				p, _, err := runPartial(sched, context.Background(), q, Opts{})
				if err != nil {
					errs[i] = err
					return
				}
				errs[i] = Oracle.Equal(want, p.Finalize())
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("trial %d subscriber %d (groupby %v, filter %v): %v",
					trial, i, q.GroupBy, q.Filter, err)
			}
		}
		runPathMatrix(t, rnd, fmt.Sprintf("trial %d (groupby %v, filter %v)", trial, q.GroupBy, q.Filter), s, q, want)
	}
}

// Ways into the brick pass, as runPathMatrix enumerates them.
const (
	entryUnshared = iota
	entryPublish
	entryAttach
	entryAttachPeerCancelled
	entryCount
)

// runPathMatrix runs q through every cell of the path matrix and compares
// each against the oracle's want.
func runPathMatrix(t *testing.T, rnd *randutil.Source, name string, s *brick.Store, q *Query, want *Result) {
	t.Helper()
	ctx := context.Background()
	tasks := int(want.BricksVisited)
	for cell := 0; cell < entryCount*2*2; cell++ {
		entry, second := cell%entryCount, cell/entryCount%2 == 1
		bypass := cell/(entryCount*2)%2 == 1
		attaches := entry == entryAttach || entry == entryAttachPeerCancelled
		if attaches && tasks < 2 {
			continue // nothing left to share once the first claim is held
		}
		cellName := fmt.Sprintf("%s cell entry=%d second=%v bypass=%v", name, entry, second, bypass)

		sched := NewScheduler(s, SchedulerConfig{Parallelism: 1})
		if st := sched.Stats(); st != (FoldStats{}) {
			t.Fatalf("%s: fresh scheduler has stats %+v", cellName, st)
		}
		if second {
			// The scheduler has run the query before, so the subject reads
			// columns that run left in the decoded cache.
			if _, _, err := runPartial(sched, ctx, q, Opts{Unshared: true}); err != nil {
				t.Fatalf("%s first run: %v", cellName, err)
			}
		}

		subject := Opts{Unshared: entry == entryUnshared, NoCache: bypass}
		var wantStats FoldStats
		if entry != entryUnshared && (attaches || !bypass) {
			wantStats.Solo = 1
		}
		var p *Partial
		var info ExecInfo
		var err error
		if !attaches {
			p, info, err = runPartial(sched, ctx, q, subject)
		} else {
			// A peer publishes the pass and is held after claiming task k;
			// the subject arrives while it is parked there.
			k := rnd.Intn(tasks - 1)
			claimed, release, _ := holdClaim(sched, k)
			peerCtx, cancelPeer := context.WithCancel(ctx)
			peer := make(chan error, 1)
			go func() {
				pp, _, err := runPartial(sched, peerCtx, q, Opts{})
				if err == nil {
					err = Oracle.Equal(want, pp.Finalize())
				}
				peer <- err
			}()
			<-claimed
			done := make(chan struct{})
			go func() {
				p, info, err = runPartial(sched, ctx, q, subject)
				close(done)
			}()
			if bypass {
				// A bypassed run never joins: it finishes on its own pass
				// while the shared one is still parked.
				<-done
			} else {
				wantStats.Attached, wantStats.CatchupBricks = 1, int64(k+1)
				waitFor(t, func() bool { return sched.Stats().Attached == 1 })
			}
			wantPeer := error(nil)
			if entry == entryAttachPeerCancelled {
				cancelPeer()
				wantPeer = context.Canceled
			} else {
				release()
			}
			if perr := <-peer; !errors.Is(perr, wantPeer) {
				t.Fatalf("%s: publisher returned %v, want %v", cellName, perr, wantPeer)
			}
			if entry == entryAttachPeerCancelled {
				release()
			}
			cancelPeer()
			<-done
			if info.CatchupBricks != int(wantStats.CatchupBricks) {
				t.Fatalf("%s: caught up %d bricks, want %d", cellName, info.CatchupBricks, wantStats.CatchupBricks)
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", cellName, err)
		}
		if info.Folded != (wantStats.Attached == 1) {
			t.Fatalf("%s: folded=%v, want %v", cellName, info.Folded, !info.Folded)
		}
		if st := sched.Stats(); st != wantStats {
			t.Fatalf("%s: fold stats %+v, want %+v", cellName, st, wantStats)
		}
		if err := Oracle.Equal(want, p.Finalize()); err != nil {
			t.Fatalf("%s: %v", cellName, err)
		}
	}
}

// TestSchedulerConcurrentMixedShapes races two distinct fold keys plus
// random cancellations through one scheduler under load; surviving
// queries must match the oracle exactly.
func TestSchedulerConcurrentMixedShapes(t *testing.T) {
	s := loadStore(t)
	qa := &Query{Aggregates: []Aggregate{{Func: Sum, Metric: "events"}}, GroupBy: []string{"region"}}
	qb := &Query{Aggregates: []Aggregate{{Func: Avg, Metric: "latency"}, {Func: Count}},
		GroupBy: []string{"app"}, Filter: map[string][2]uint32{"region": {1, 3}}}
	wA, wB := reference(t, qa, s), reference(t, qb, s)

	sched := NewScheduler(s, SchedulerConfig{Parallelism: 2})
	rnd := randutil.New(7)
	cancelAfter := make([]bool, 24)
	for i := range cancelAfter {
		cancelAfter[i] = rnd.Bernoulli(0.3)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, len(cancelAfter)*4)
	for round := 0; round < 4; round++ {
		for i := range cancelAfter {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if cancelAfter[i] {
					cancel() // canceled before/while running: must error cleanly
				}
				q, want := qa, wA
				if i%2 == 1 {
					q, want = qb, wB
				}
				p, _, err := runPartial(sched, ctx, q, Opts{})
				if err != nil {
					if !errors.Is(err, context.Canceled) {
						errCh <- fmt.Errorf("query %d: %v", i, err)
					}
					return
				}
				if err := Oracle.Equal(want, p.Finalize()); err != nil {
					errCh <- fmt.Errorf("query %d: %v", i, err)
				}
			}(i)
		}
		wg.Wait()
	}
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// waitFor polls until cond holds or the deadline expires.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestScanStatsPathInvariant: the encoded-scan accounting belongs to the
// brick visit, not to the way a query entered the pass. One selective
// query over run- and dictionary-encoded bricks must report the same
// non-zero ScanStats unshared, as the publishing subscriber, and as a
// subscriber that attached mid-pass and caught up.
func TestScanStatsPathInvariant(t *testing.T) {
	s := skipperOracleStore(t, randutil.New(0x5C1B))
	q := &Query{
		Aggregates: []Aggregate{{Func: Count}},
		GroupBy:    []string{"key"},
		Filter:     map[string][2]uint32{"pos": {40, 42}, "tag": {100, 600}},
	}
	_, unshared, err := runUnshared(s, q, 1, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	want := unshared.ScanStats
	if want.RunsSkipped == 0 || want.CodesSkipped == 0 {
		t.Fatalf("selective query skipped nothing: %+v", want)
	}

	sched := NewScheduler(s, SchedulerConfig{Parallelism: 1})
	claimed, release, _ := holdClaim(sched, 1)
	infos := make(chan ExecInfo, 2)
	run := func() {
		_, info, err := runPartial(sched, context.Background(), q, Opts{})
		if err != nil {
			t.Error(err)
		}
		infos <- info
	}
	go run()
	<-claimed
	go run()
	waitFor(t, func() bool { return sched.Stats().Attached == 1 })
	release()
	for i := 0; i < 2; i++ {
		info := <-infos
		if info.Folded && info.CatchupBricks != 2 {
			t.Fatalf("attacher caught up %d bricks, want 2", info.CatchupBricks)
		}
		if info.ScanStats != want {
			t.Fatalf("folded=%v: ScanStats %+v, unshared run %+v", info.Folded, info.ScanStats, want)
		}
	}
}

// TestRunCancelStopsClaiming: whichever way a query entered the pass, a
// cancelled context returns ctx.Err() at once — the pass is still parked
// on its first brick — no further brick is claimed, and every goroutine
// the run started exits.
func TestRunCancelStopsClaiming(t *testing.T) {
	s := loadStore(t)
	q := &Query{Aggregates: []Aggregate{{Func: Sum, Metric: "events"}}, GroupBy: []string{"region"}}
	for name, o := range map[string]Opts{
		"unshared":  {Unshared: true},
		"bypassed":  {NoCache: true},
		"published": {},
	} {
		before := runtime.NumGoroutine()
		sched := NewScheduler(s, SchedulerConfig{Parallelism: 1})
		claimed, release, claims := holdClaim(sched, 0)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, _, err := runPartial(sched, ctx, q, o)
			done <- err
		}()
		<-claimed
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: cancelled run returned %v", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: cancelled run did not return while its pass was parked", name)
		}
		release()
		waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
		if n := claims.Load(); n != 1 {
			t.Fatalf("%s: %d bricks claimed, want 1", name, n)
		}
		sched.mu.Lock()
		left := len(sched.passes)
		sched.mu.Unlock()
		if left != 0 {
			t.Fatalf("%s: %d passes still published", name, left)
		}
	}
}
