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
	"cubrick/internal/randutil"
)

// Oracle is the reference package internal/oracle. It imports engine, so
// this package's tests reach it through these functions, which
// oracle_test.go (package engine_test) installs before any test runs.
var Oracle struct {
	Run      func(q *Query, stores ...*brick.Store) (*Result, error)
	Equal    func(want, got *Result) error
	Answer   func(r *Result) *Result
	NewTrial func(tb testing.TB, rnd *randutil.Source, dyadic bool) (*brick.Store, *Query)
}

// reference returns the oracle's result for q over the stores.
func reference(tb testing.TB, q *Query, stores ...*brick.Store) *Result {
	tb.Helper()
	want, err := Oracle.Run(q, stores...)
	if err != nil {
		tb.Fatal(err)
	}
	return want
}

// runPartial runs q over s into a fresh Combiner and returns the
// combiner's answer as a Partial, nil when the run fails.
func runPartial(ctx context.Context, s *brick.Store, q *Query, o Opts) (*Partial, ExecInfo, error) {
	var cb Combiner
	info, err := Run(ctx, q, o, &cb, s)
	if err != nil {
		return nil, info, err
	}
	return cb.Partial(q), info, nil
}

// runQuery runs q over s on GOMAXPROCS workers, for tests that need a
// partial.
func runQuery(s *brick.Store, q *Query) (*Partial, error) {
	p, _, err := runPartial(context.Background(), s, q, Opts{})
	return p, err
}

// holdClaim parks the first pass worker that claims task k until release is
// called, and closes claimed once it is parked. claims counts every claim.
// The hook is removed when the test ends.
func holdClaim(t *testing.T, k int) (claimed chan struct{}, release func(), claims *atomic.Int64) {
	claimed = make(chan struct{})
	gate := make(chan struct{})
	claims = new(atomic.Int64)
	var held atomic.Bool
	testClaimHook = func(i int) {
		claims.Add(1)
		if i == k && held.CompareAndSwap(false, true) {
			close(claimed)
			<-gate
		}
	}
	t.Cleanup(func() { testClaimHook = nil })
	return claimed, func() { close(gate) }, claims
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

// TestRunCacheMatrixEquivalence is the run-matrix wall. Each generated
// (schema, data, tier mix, query) trial, with metrics whose sums round,
// first races N concurrent runs of the query over one store and its shared
// decoded-column cache, then walks
//
//	{first run, second run over a decoded cache the first one filled}
//	× {decoded cache on, bypassed}
//
// — and every run must equal the oracle bit for bit, float summation
// order, HLL CountDistinct register state and scan counters included.
func TestRunCacheMatrixEquivalence(t *testing.T) {
	rnd := randutil.New(20260807)
	const concurrent = 6
	for trial := 0; trial < 25; trial++ {
		s, q := Oracle.NewTrial(t, rnd, false)
		s.SetDecodedCache(brick.NewDecodedCache(8 << 20))
		want := reference(t, q, s)

		errs := make([]error, concurrent)
		var wg sync.WaitGroup
		for i := 0; i < concurrent; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				p, _, err := runPartial(context.Background(), s, q, Opts{Parallelism: 2})
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
				t.Fatalf("trial %d run %d (groupby %v, filter %v): %v",
					trial, i, q.GroupBy, q.Filter, err)
			}
		}
		runMatrix(t, fmt.Sprintf("trial %d (groupby %v, filter %v)", trial, q.GroupBy, q.Filter), s, q, want)
	}
}

// runMatrix runs q through every cell of the run matrix, each over a fresh
// decoded-column cache, and compares each against the oracle's want.
func runMatrix(t *testing.T, name string, s *brick.Store, q *Query, want *Result) {
	t.Helper()
	ctx := context.Background()
	for cell := 0; cell < 4; cell++ {
		second, bypass := cell%2 == 1, cell/2 == 1
		cellName := fmt.Sprintf("%s cell second=%v bypass=%v", name, second, bypass)
		s.SetDecodedCache(brick.NewDecodedCache(8 << 20))
		if second {
			// The query ran before, so the subject reads columns that run
			// left in the decoded cache (or, bypassed, ignores them).
			if _, _, err := runPartial(ctx, s, q, Opts{Parallelism: 1}); err != nil {
				t.Fatalf("%s first run: %v", cellName, err)
			}
		}
		p, _, err := runPartial(ctx, s, q, Opts{Parallelism: 1, NoCache: bypass})
		if err != nil {
			t.Fatalf("%s: %v", cellName, err)
		}
		if err := Oracle.Equal(want, p.Finalize()); err != nil {
			t.Fatalf("%s: %v", cellName, err)
		}
	}
}

// TestRunFoldsStoresInOrder is the multi-store wall on non-dyadic metrics:
// one Run over several stores of a schema — some encoded — is one pass
// whose bricks combine stores in argument order, brick id within each, so
// its answer equals oracle.Run over the stores in that order bit for bit,
// scan counters included, on any worker count.
func TestRunFoldsStoresInOrder(t *testing.T) {
	rnd := randutil.New(0x5705)
	for trial := 0; trial < 20; trial++ {
		whole, q := Oracle.NewTrial(t, rnd, false)
		stores := make([]*brick.Store, 1+rnd.Intn(4))
		for i := range stores {
			st, err := brick.NewStore(whole.Schema())
			if err != nil {
				t.Fatal(err)
			}
			stores[i] = st
		}
		if err := whole.Scan(nil, func(d []uint32, m []float64) error {
			return stores[rnd.Intn(len(stores))].Insert(d, m)
		}); err != nil {
			t.Fatal(err)
		}
		for _, st := range stores {
			if rnd.Bernoulli(0.5) { // encoded bricks take the encoded kernels
				if _, _, err := st.EnsureBudget(0, 0.5); err != nil {
					t.Fatal(err)
				}
			}
		}
		var cb Combiner
		if _, err := Run(context.Background(), q, Opts{Parallelism: 1 + rnd.Intn(4)}, &cb, stores...); err != nil {
			t.Fatal(err)
		}
		if err := Oracle.Equal(reference(t, q, stores...), cb.Partial(q).Finalize()); err != nil {
			t.Fatalf("trial %d (%d stores, groupby %v, filter %v): %v", trial, len(stores), q.GroupBy, q.Filter, err)
		}
	}
	if _, err := Run(context.Background(), &Query{Aggregates: []Aggregate{{Func: Count}}}, Opts{}, new(Combiner)); !errors.Is(err, errNoStore) {
		t.Fatalf("a run over no store: %v, want errNoStore", err)
	}
}

// TestSchedulerConcurrentMixedShapes races two query shapes plus random
// cancellations over one store under load; surviving queries must match
// the oracle exactly.
func TestSchedulerConcurrentMixedShapes(t *testing.T) {
	s := loadStore(t)
	qa := &Query{Aggregates: []Aggregate{{Func: Sum, Metric: "events"}}, GroupBy: []string{"region"}}
	qb := &Query{Aggregates: []Aggregate{{Func: Avg, Metric: "latency"}, {Func: Count}},
		GroupBy: []string{"app"}, Filter: map[string][2]uint32{"region": {1, 3}}}
	wA, wB := reference(t, qa, s), reference(t, qb, s)

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
				p, _, err := runPartial(ctx, s, q, Opts{Parallelism: 2})
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

// TestScanStatsPathInvariant: the encoded-scan accounting belongs to the
// brick visit, not to where the decoded columns came from. One selective
// query over run- and dictionary-encoded bricks must report the same
// non-zero ScanStats bypassing the decoded-column cache, filling it, and
// hitting it.
func TestScanStatsPathInvariant(t *testing.T) {
	s := skipperOracleStore(t, randutil.New(0x5C1B))
	dc := brick.NewDecodedCache(8 << 20)
	s.SetDecodedCache(dc)
	q := &Query{
		Aggregates: []Aggregate{{Func: Count}},
		GroupBy:    []string{"key"},
		Filter:     map[string][2]uint32{"pos": {40, 42}, "tag": {100, 600}},
	}
	ctx := context.Background()
	_, bypassed, err := runPartial(ctx, s, q, Opts{Parallelism: 1, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	want := bypassed.ScanStats
	if want.RunsSkipped == 0 || want.CodesSkipped == 0 {
		t.Fatalf("selective query skipped nothing: %+v", want)
	}
	for _, name := range []string{"fill", "hit"} {
		_, info, err := runPartial(ctx, s, q, Opts{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if info.ScanStats != want {
			t.Fatalf("%s: ScanStats %+v, bypassed run %+v", name, info.ScanStats, want)
		}
	}
	if st := dc.Stats(); st.Hits == 0 {
		t.Fatalf("the cached runs never hit the decoded-column cache: %+v", st)
	}
}

// TestRunCancelStopsClaiming: a cancelled context returns ctx.Err() at
// once — the pass is still parked on its first brick — no further brick is
// claimed, every goroutine the run started exits, and the next run over
// the same store answers as if nothing had happened.
func TestRunCancelStopsClaiming(t *testing.T) {
	s := loadStore(t)
	if _, _, err := s.EnsureBudget(0, 0.5); err != nil {
		t.Fatal(err)
	}
	if s.BrickCount() < 2 {
		t.Fatalf("%d bricks: nothing left to claim after the first", s.BrickCount())
	}
	s.SetDecodedCache(brick.NewDecodedCache(1 << 20))
	q := &Query{Aggregates: []Aggregate{{Func: Sum, Metric: "events"}}, GroupBy: []string{"region"}}
	want := reference(t, q, s)
	for name, o := range map[string]Opts{
		"cached":   {Parallelism: 1},
		"bypassed": {Parallelism: 1, NoCache: true},
	} {
		before := runtime.NumGoroutine()
		claimed, release, claims := holdClaim(t, 0)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, _, err := runPartial(ctx, s, q, o)
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
		testClaimHook = nil

		p, _, err := runPartial(context.Background(), s, q, o)
		if err != nil {
			t.Fatalf("%s: run after the cancelled one: %v", name, err)
		}
		if err := Oracle.Equal(want, p.Finalize()); err != nil {
			t.Fatalf("%s: run after the cancelled one: %v", name, err)
		}
	}
}

// TestSchedulerDetachOnCancel: cancelling one run leaves a concurrent run
// over the same store untouched. A first run is parked on brick 0 and a
// second on brick 1; the second is cancelled and must return
// context.Canceled at once, while both passes are still parked. Once
// released, the cancelled run's worker claims nothing more and the first
// run answers exactly. A lone cancelled run then leaves the store ready
// for the next run.
func TestSchedulerDetachOnCancel(t *testing.T) {
	s := loadStore(t)
	if s.BrickCount() < 2 {
		t.Fatalf("%d bricks: the second run has no brick 1 to park on", s.BrickCount())
	}
	q := &Query{Aggregates: []Aggregate{{Func: Sum, Metric: "events"}}, GroupBy: []string{"region"}}
	want := reference(t, q, s)
	o := Opts{Parallelism: 1}

	var claims atomic.Int64
	testClaimHook = func(int) { claims.Add(1) }
	t.Cleanup(func() { testClaimHook = nil })
	if _, _, err := runPartial(context.Background(), s, q, o); err != nil {
		t.Fatal(err)
	}
	tasks := claims.Load()
	claims.Store(0)

	// Each gate holds the first claim of its brick only.
	var parked [2]chan struct{}
	var held [2]atomic.Bool
	gate := make(chan struct{})
	for k := range parked {
		parked[k] = make(chan struct{})
	}
	testClaimHook = func(i int) {
		claims.Add(1)
		if i < len(parked) && held[i].CompareAndSwap(false, true) {
			close(parked[i])
			<-gate
		}
	}
	before := runtime.NumGoroutine()
	first := make(chan error, 1)
	go func() {
		p, _, err := runPartial(context.Background(), s, q, o)
		if err == nil {
			err = Oracle.Equal(want, p.Finalize())
		}
		first <- err
	}()
	<-parked[0]

	ctx, cancel := context.WithCancel(context.Background())
	second := make(chan error, 1)
	go func() {
		_, _, err := runPartial(ctx, s, q, o)
		second <- err
	}()
	<-parked[1]
	cancel()
	select {
	case err := <-second:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled run did not return while its pass was parked")
	}
	close(gate)
	if err := <-first; err != nil {
		t.Fatalf("run beside the cancelled one: %v", err)
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
	// The first run claims every task; the cancelled one bricks 0 and 1.
	if n := claims.Load(); n != tasks+2 {
		t.Fatalf("%d claims, want %d: the cancelled run kept claiming", n, tasks+2)
	}

	claimed, release, _ := holdClaim(t, 0)
	ctx2, cancel2 := context.WithCancel(context.Background())
	solo := make(chan error, 1)
	go func() {
		_, _, err := runPartial(ctx2, s, q, o)
		solo <- err
	}()
	<-claimed
	cancel2()
	if err := <-solo; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled lone run returned %v", err)
	}
	release()
	testClaimHook = nil
	p, _, err := runPartial(context.Background(), s, q, o)
	if err != nil {
		t.Fatalf("run after the cancelled one: %v", err)
	}
	if err := Oracle.Equal(want, p.Finalize()); err != nil {
		t.Fatalf("result after the cancelled one: %v", err)
	}
}
