package engine

import (
	"context"
	"errors"
	"testing"
)

// testAcc returns a small real sealed slab: one brick's worth of a grouped
// sum over loadStore's schema.
func testAcc(t testing.TB) *groupSlab {
	t.Helper()
	c, err := compile(testSchema(), &Query{
		Aggregates: []Aggregate{{Func: Sum, Metric: "events"}}, GroupBy: []string{"app"}}, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	var ks kernelSet
	acc := ks.pick(c, c.domain)
	acc.observeBatch([][]uint32{{0, 1, 1}, {3, 4, 4}}, [][]float64{{1, 2, 4}, {0, 0, 0}}, 3, nil)
	slab := acc.slab().seal()
	return &slab
}

func accSum(t *testing.T, slab groupSlab) float64 {
	t.Helper()
	p := slab.partial(&Query{Aggregates: []Aggregate{{Func: Sum, Metric: "events"}}, GroupBy: []string{"app"}})
	var sum float64
	for _, row := range p.Finalize().Rows {
		sum += row[len(row)-1]
	}
	return sum
}

// TestBrickCacheSecondTouchAdmission: the first put of a key stores
// nothing, the second stores, the third lookup hits; a different epoch is a
// different key, so an ingest orphans the entry.
func TestBrickCacheSecondTouchAdmission(t *testing.T) {
	bc := NewBrickCache(1 << 20)
	acc := testAcc(t)

	if _, _, ok := bc.get("p0", "fold", 7, 3); ok {
		t.Fatal("empty cache hit")
	}
	bc.put("p0", "fold", 7, 3, acc, 3)
	if st := bc.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("first put stored an entry: %+v", st)
	}
	if _, _, ok := bc.get("p0", "fold", 7, 3); ok {
		t.Fatal("hit after one put: admission needs a second touch")
	}
	bc.put("p0", "fold", 7, 3, acc, 3)
	if st := bc.Stats(); st.Entries != 1 {
		t.Fatalf("second put did not store: %+v", st)
	}
	got, rows, ok := bc.get("p0", "fold", 7, 3)
	if !ok || rows != 3 || accSum(t, got) != 7 {
		t.Fatalf("third lookup: ok=%v rows=%d sum=%v, want hit, 3 rows, sum 7", ok, rows, accSum(t, got))
	}
	// The hit is a private copy: consuming it must not corrupt the entry.
	for i := range got.cells {
		got.cells[i].merge(got.cells[i])
	}
	if again, _, _ := bc.get("p0", "fold", 7, 3); accSum(t, again) != 7 {
		t.Fatal("cached snapshot was mutated through a returned copy")
	}

	// Epoch bump (an ingest into the brick): the old entry is orphaned, and
	// the new key starts its own admission from scratch.
	if _, _, ok := bc.get("p0", "fold", 7, 4); ok {
		t.Fatal("entry served across an epoch bump")
	}
	bc.put("p0", "fold", 7, 4, acc, 3)
	if _, _, ok := bc.get("p0", "fold", 7, 4); ok {
		t.Fatal("new epoch admitted on its first touch")
	}
	// Scope, fold key and brick id are all part of the key.
	for _, k := range []struct {
		scope, fold string
		id          uint64
	}{{"p1", "fold", 7}, {"p0", "other", 7}, {"p0", "fold", 8}} {
		if _, _, ok := bc.get(k.scope, k.fold, k.id, 3); ok {
			t.Fatalf("wrong hit for %+v", k)
		}
	}
}

// TestBrickCacheDoorkeeperCollisions: the doorkeeper is lossy in two ways
// and both are harmless. Another key overwriting the slot between two puts
// skips a fill; another key leaving the same fingerprint admits early. In
// neither case does a lookup return anything but its own key's snapshot.
func TestBrickCacheDoorkeeperCollisions(t *testing.T) {
	bc := NewBrickCache(1 << 20)
	acc := testAcc(t)
	h := bc.doorHash("p0", "fold", 7, 3)
	slot, fp := &bc.door[h%doorSlots], uint32(h>>32)

	// Slot collision: a stranger's fingerprint lands between the two puts.
	bc.put("p0", "fold", 7, 3, acc, 3)
	slot.Store(fp + 1)
	bc.put("p0", "fold", 7, 3, acc, 3)
	if _, _, ok := bc.get("p0", "fold", 7, 3); ok || bc.Stats().Entries != 0 {
		t.Fatal("an overwritten slot must delay the fill, not admit")
	}
	bc.put("p0", "fold", 7, 3, acc, 3) // the slot remembers this key again
	if _, _, ok := bc.get("p0", "fold", 7, 3); !ok {
		t.Fatal("key not admitted once its touches were consecutive")
	}

	// Fingerprint collision: a stranger with the same hash touched first.
	h2 := bc.doorHash("p0", "fold", 9, 3)
	bc.door[h2%doorSlots].Store(uint32(h2 >> 32))
	bc.put("p0", "fold", 9, 3, acc, 5)
	if _, rows, ok := bc.get("p0", "fold", 9, 3); !ok || rows != 5 {
		t.Fatal("a matching fingerprint should admit on the first put (early fill)")
	}
	// The stranger itself — any other key — still misses: hits match the
	// complete key, never the fingerprint.
	if _, _, ok := bc.get("p0", "fold", 10, 3); ok {
		t.Fatal("lookup hit through the doorkeeper")
	}

	var none *BrickCache // nil cache: never hits, never stores
	none.put("p0", "fold", 7, 3, acc, 3)
	none.put("p0", "fold", 7, 3, acc, 3)
	if _, _, ok := none.get("p0", "fold", 7, 3); ok {
		t.Fatal("nil cache hit")
	}
}

// TestBrickCacheRejectedPutAllocs is the allocation ceiling check.sh
// enforces: a put the doorkeeper rejects — every put of a one-off query —
// builds no key, clones nothing, allocates nothing.
func TestBrickCacheRejectedPutAllocs(t *testing.T) {
	bc := NewBrickCache(1 << 20)
	acc := testAcc(t)
	epoch := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		epoch++ // a fresh key every time, as unique queries produce
		bc.put("events/3", "sum(value)|app|ds:10-90", 42, epoch, acc, 100)
	})
	if allocs != 0 {
		t.Fatalf("doorkeeper-rejected put allocates %.0f objects, want 0", allocs)
	}
	if st := bc.Stats(); st.Entries != 0 {
		t.Fatalf("first-touch puts stored %d entries", st.Entries)
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
// the worker process down) and nothing to cache.
func TestSchedulerZeroSubscriberTask(t *testing.T) {
	s := loadStore(t)
	bc := NewBrickCache(1 << 20)
	sched := NewScheduler(s, SchedulerConfig{Parallelism: 1, BrickCache: bc, CacheScope: "p"})
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
		_, _, err := sched.Run(ctx, q, Opts{})
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
	// Task 0 was claimed with a live subscriber and looked its brick up;
	// the remaining tasks had none and must not have touched the cache.
	if st := bc.Stats(); st.Misses != 1 || st.Entries != 0 {
		t.Fatalf("zero-subscriber tasks reached the brick cache: %+v", st)
	}

	sched.testClaimHook = nil
	want, err := Execute(s, q)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := sched.Run(context.Background(), q, Opts{})
	if err != nil {
		t.Fatalf("query after the abandoned pass: %v", err)
	}
	if err := resultsEqual(want.Finalize(), p.Finalize()); err != nil {
		t.Fatal(err)
	}
}
