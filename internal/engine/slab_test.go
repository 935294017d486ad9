package engine

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"cubrick/internal/brick"
	"cubrick/internal/hll"
	"cubrick/internal/randutil"
)

// allocStore loads rows spread over 64 bricks (g: 16 buckets of 256
// values, h: 4 buckets), each brick holding about groups distinct g values,
// every brick encoded behind a decoded-column cache.
func allocStore(t *testing.T, groups int) *brick.Store {
	t.Helper()
	s, err := brick.NewStore(brick.Schema{
		Dimensions: []brick.Dimension{{Name: "g", Max: 4096, Buckets: 16}, {Name: "h", Max: 64, Buckets: 4}},
		Metrics:    []brick.Metric{{Name: "m"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rnd := randutil.New(int64(groups))
	for b := 0; b < 16; b++ {
		for r := 0; r < 4*400; r++ {
			g := uint32(b*256 + rnd.Intn(groups))
			if err := s.Insert([]uint32{g, uint32(rnd.Intn(64))}, []float64{float64(rnd.Intn(100))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, _, err := s.EnsureBudget(0, 0.5); err != nil {
		t.Fatal(err)
	}
	s.SetDecodedCache(brick.NewDecodedCache(32 << 20))
	return s
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestRunAllocsPerBrick is the allocation ceiling check.sh enforces on the
// brick pass: groups live in slabs and sealed slabs are recycled, so an
// unshared run allocates at most a couple of objects per visited brick
// plus a per-run constant, however many groups each brick holds.
func TestRunAllocsPerBrick(t *testing.T) {
	if raceEnabled {
		// The race detector randomly drops sync.Pool items, so the pass
		// workers' scratch is not reliably reused.
		t.Skip("allocation counts are not meaningful under -race")
	}
	const perBrick, perRun = 2, 60
	for _, groups := range []int{2, 32, 200} {
		s := allocStore(t, groups)
		sched := NewScheduler(s, SchedulerConfig{Parallelism: 1})
		for _, q := range []*Query{
			{Aggregates: []Aggregate{{Func: Sum, Metric: "m"}, {Func: Max, Metric: "m"}}, GroupBy: []string{"g"}},
			{Aggregates: []Aggregate{{Func: Count}}, GroupBy: []string{"g"}, Filter: map[string][2]uint32{"h": {5, 40}}},
		} {
			p, _, err := sched.Run(context.Background(), q, Opts{Unshared: true}) // warms the decoded cache
			if err != nil {
				t.Fatal(err)
			}
			if p.Groups() < groups*16*9/10 {
				t.Fatalf("%d groups per brick: the run found only %d groups", groups, p.Groups())
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, _, err := sched.Run(context.Background(), q, Opts{Unshared: true}); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%d groups per brick, filter %v: %.0f allocs per run over %d bricks", groups, q.Filter, allocs, p.BricksVisited)
			if ceiling := float64(perBrick*p.BricksVisited + perRun); allocs > ceiling {
				t.Fatalf("%d groups per brick, filter %v: %.0f allocs per run over %d bricks, ceiling %.0f",
					groups, q.Filter, allocs, p.BricksVisited, ceiling)
			}
		}
	}
}

// slabValue is a slab's state by value, sketch registers included.
type slabValue struct {
	arity, nAggs int
	keys         []uint32
	cells        []cellValue
}

type cellValue struct {
	sum, min, max float64
	count         int64
	sketch        *hll.Sketch // a private copy
}

func cellValueOf(c cell) cellValue {
	return cellValue{sum: c.sum, min: c.min, max: c.max, count: c.count, sketch: c.sketch.Clone()}
}

func valueOf(s *groupSlab) slabValue {
	v := slabValue{arity: s.arity, nAggs: s.nAggs, keys: append([]uint32(nil), s.keys...)}
	for _, c := range s.cells {
		v.cells = append(v.cells, cellValueOf(c))
	}
	return v
}

// groupValue is one partial group's state by value.
type groupValue struct {
	key   []uint32
	cells []cellValue
}

// partialValue is a partial's groups by value, keyed by their key.
func partialValue(p *Partial) map[string]groupValue {
	v := make(map[string]groupValue, p.Groups())
	for g := range int32(p.Groups()) {
		gv := groupValue{key: append([]uint32(nil), p.key(g)...)}
		for _, c := range p.at(g) {
			gv.cells = append(gv.cells, cellValueOf(c))
		}
		v[fmt.Sprint(gv.key)] = gv
	}
	return v
}

// brickSlabs visits every brick of s for the unfiltered query q with fresh
// visit buffers — empty slabs that grow as groups appear — and returns
// each brick's sealed slab by brick id, plus the ids in plan order.
func brickSlabs(t *testing.T, s *brick.Store, q *Query) (*compiled, []uint64, map[uint64]*groupSlab) {
	t.Helper()
	c, err := compile(s.Schema(), q, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.PlanScan(nil)
	if err != nil {
		t.Fatal(err)
	}
	es := &encScratch{}
	var ids []uint64
	slabs := make(map[uint64]*groupSlab)
	for i := range plan.Tasks {
		task := &plan.Tasks[i]
		acc := es.kernels.pick(c, task.Bounds)
		if err := task.VisitBatch(&c.projFull, func(b *brick.Batch) error {
			c.observeFull(acc, b, es)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, task.BrickID)
		slabs[task.BrickID] = acc.slab().pooledSeal()
	}
	return c, ids, slabs
}

// partialSketches collects the sketch pointers a partial's groups hold.
func partialSketches(p *Partial, into map[*hll.Sketch]int, owner int) error {
	for g := range int32(p.Groups()) {
		for _, c := range p.at(g) {
			if c.sketch == nil {
				continue
			}
			if o, seen := into[c.sketch]; seen && o != owner {
				return fmt.Errorf("a sketch is shared by owners %d and %d", o, owner)
			}
			into[c.sketch] = owner
		}
	}
	return nil
}

// TestGroupSlabHazards pins the five ways index-addressed group state can
// break an answer while most other tests still pass: (a) a cell that
// starts as the zero value instead of newCell(), (b) a cell view held
// across an insertion that moves the slab, (c) a slab aliased between a
// worker's reused buffers and two subscribers, (d) a
// clone that misses part of a kernel's state, and (e) a recycled slab
// still reachable from an answer. The matrix case runs the
// path matrix on non-dyadic metrics, where any path that changed the
// order of float additions would show.
func TestGroupSlabHazards(t *testing.T) {
	ctx := context.Background()

	t.Run("a_fresh_cells", func(t *testing.T) {
		// All-positive and all-negative metrics: a zero-valued cell would
		// report Min 0 over the positives and Max 0 over the negatives. One
		// pass worker recycles its visit buffers over every brick, and the
		// shapes alternate so each query reuses cells the last one left.
		s, err := brick.NewStore(brick.Schema{
			Dimensions: []brick.Dimension{{Name: "g", Max: 64, Buckets: 8}, {Name: "h", Max: 8, Buckets: 2}},
			Metrics:    []brick.Metric{{Name: "pos"}, {Name: "neg"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		rnd := randutil.New(0xA)
		for r := 0; r < 2000; r++ {
			v := 1 + rnd.Float64()
			if err := s.Insert([]uint32{uint32(rnd.Intn(64)), uint32(rnd.Intn(8))}, []float64{v, -v}); err != nil {
				t.Fatal(err)
			}
		}
		sched := NewScheduler(s, SchedulerConfig{Parallelism: 1})
		aggs := []Aggregate{{Func: Min, Metric: "pos"}, {Func: Max, Metric: "neg"}, {Func: Max, Metric: "pos"}, {Func: Min, Metric: "neg"}}
		for round := 0; round < 3; round++ {
			for _, q := range []*Query{
				{Aggregates: aggs, GroupBy: []string{"g"}},
				{Aggregates: aggs[1:], GroupBy: []string{"h", "g"}, Filter: map[string][2]uint32{"g": {3, 60}}},
				{Aggregates: aggs[:3]},
				{Aggregates: aggs, GroupBy: []string{"h"}, Filter: map[string][2]uint32{"h": {1, 6}}},
			} {
				want, err := Execute(s, q)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := sched.Run(ctx, q, Opts{Unshared: true})
				if err != nil {
					t.Fatal(err)
				}
				if err := resultsEqual(want.Finalize(), got.Finalize()); err != nil {
					t.Fatalf("round %d groupby %v: %v", round, q.GroupBy, err)
				}
			}
		}
	})

	t.Run("b_views_across_growth", func(t *testing.T) {
		// One brick, both dimensions dictionary-coded, and most groups
		// appear late: the first half of the rows uses two values per
		// dimension, the second half eight. The kernels start from empty
		// buffers, so the slab grows while earlier groups are still being
		// observed; a cell view held across that growth would write into a
		// stale copy.
		for _, max := range []uint32{4000, 8000} { // the one-dim kernel is dense, then packed
			s, err := brick.NewStore(brick.Schema{
				Dimensions: []brick.Dimension{{Name: "a", Max: max, Buckets: 1}, {Name: "b", Max: max, Buckets: 1}},
				Metrics:    []brick.Metric{{Name: "m"}},
			})
			if err != nil {
				t.Fatal(err)
			}
			rnd := randutil.New(int64(max))
			for r := 0; r < 600; r++ {
				n := 2
				if r >= 300 {
					n = 8
				}
				dims := []uint32{uint32(rnd.Intn(n)) * (max / 8), uint32(rnd.Intn(n)) * (max / 8)}
				if err := s.Insert(dims, []float64{rnd.Float64()}); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, err := s.EnsureBudget(0, 0.5); err != nil {
				t.Fatal(err)
			}
			if st := s.EncodingStats(); st.Dims["dict"] != 2 {
				t.Fatalf("max %d: want both dimensions dictionary-coded, got %v", max, st.Dims)
			}
			for _, q := range []*Query{
				{Aggregates: []Aggregate{{Func: Sum, Metric: "m"}, {Func: Count}, {Func: Min, Metric: "m"}}, GroupBy: []string{"a"}},
				{Aggregates: []Aggregate{{Func: Sum, Metric: "m"}, {Func: Max, Metric: "m"}}, GroupBy: []string{"b", "a"}},
			} {
				c, ids, slabs := brickSlabs(t, s, q)
				base := new(kernelSet).pick(c, c.domain)
				for _, id := range ids {
					absorb(base, slabs[id])
				}
				want, err := Execute(s, q)
				if err != nil {
					t.Fatal(err)
				}
				if err := rowsEqual(want.Finalize(), base.slab().partial(q).Finalize()); err != nil {
					t.Fatalf("max %d groupby %v: %v", max, q.GroupBy, err)
				}
			}
		}
	})

	t.Run("c_no_aliasing", func(t *testing.T) {
		// A CountDistinct query two subscribers share: no sketch may be
		// shared by the two answers.
		s := loadStore(t)
		q := &Query{Aggregates: []Aggregate{{Func: CountDistinct, Metric: "region"}, {Func: Sum, Metric: "events"}},
			GroupBy: []string{"app"}}
		want, err := Execute(s, q)
		if err != nil {
			t.Fatal(err)
		}
		sched := NewScheduler(s, SchedulerConfig{Parallelism: 1})
		claimed, release, _ := holdClaim(sched, 0)
		answers := make(chan *Partial, 2)
		run := func() {
			p, _, err := sched.Run(ctx, q, Opts{})
			if err != nil {
				t.Error(err)
			}
			answers <- p
		}
		go run()
		<-claimed
		go run()
		waitFor(t, func() bool { return sched.Stats().Attached == 1 })
		release()
		owners := make(map[*hll.Sketch]int)
		for i := 0; i < 2; i++ {
			p := <-answers
			if p == nil {
				t.FailNow()
			}
			if err := resultsEqual(want.Finalize(), p.Finalize()); err != nil {
				t.Fatal(err)
			}
			if err := partialSketches(p, owners, i); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("d_clone", func(t *testing.T) {
		// Every kernel type, and the combiner: a clone keeps the state it
		// was taken from while the original goes on observing, and the
		// original keeps its own while the clone is changed.
		schema := brick.Schema{
			Dimensions: []brick.Dimension{{Name: "x", Max: 1 << 20, Buckets: 1}, {Name: "y", Max: 1 << 20, Buckets: 1},
				{Name: "z", Max: 1 << 30, Buckets: 1}, {Name: "w", Max: 64, Buckets: 1}},
			Metrics: []brick.Metric{{Name: "m"}},
		}
		narrow := [][2]uint32{{0, 15}, {0, 15}, {0, 15}, {0, 63}}
		cases := []struct {
			kernel  string
			groupBy []string
			bounds  [][2]uint32
		}{
			{"*engine.globalAcc", nil, narrow},
			{"*engine.denseAcc", []string{"x", "y"}, narrow},
			{"*engine.packedAcc", []string{"x", "y", "z"}, [][2]uint32{{0, 1 << 19}, {0, 1 << 19}, {0, 1 << 19}, {0, 63}}},
			{"*engine.keyNAcc", []string{"x", "y", "z"}, nil}, // nil: the schema domain
		}
		first := [][]uint32{{1, 2, 1}, {4, 4, 4}, {7, 7, 7}, {1, 2, 3}}
		more := [][]uint32{{1, 2, 3}, {4, 4, 5}, {7, 7, 9}, {40, 41, 42}} // new sketch values in old groups, and a new group
		mets := [][]float64{{0.5, -1.25, 3}}
		for _, tc := range cases {
			c, err := compile(schema, &Query{GroupBy: tc.groupBy, Aggregates: []Aggregate{
				{Func: Sum, Metric: "m"}, {Func: Min, Metric: "m"}, {Func: CountDistinct, Metric: "w"}}}, Opts{})
			if err != nil {
				t.Fatal(err)
			}
			if tc.bounds == nil {
				tc.bounds = c.domain
			}
			acc := new(kernelSet).pick(c, tc.bounds)
			if got := fmt.Sprintf("%T", acc); got != tc.kernel {
				t.Fatalf("picked %s, want %s", got, tc.kernel)
			}
			combiner := new(kernelSet).pick(c, c.domain)
			acc.observeBatch(first, mets, 3, nil)
			absorb(combiner, acc.slab().pooledClone())
			for _, k := range []struct {
				name string
				acc  accumulator
				feed func()
			}{
				{tc.kernel, acc, func() { acc.observeBatch(more, mets, 3, nil) }},
				{"combiner of " + tc.kernel, combiner, func() {
					next := new(kernelSet).pick(c, tc.bounds)
					next.observeBatch(more, mets, 3, nil)
					absorb(combiner, next.slab())
				}},
			} {
				orig := k.acc.slab()
				want := valueOf(orig)
				cl := orig.pooledClone()
				k.feed()
				if reflect.DeepEqual(valueOf(orig), want) {
					t.Fatalf("%s: feeding more rows changed nothing", k.name)
				}
				if !reflect.DeepEqual(valueOf(cl), want) {
					t.Fatalf("%s: the clone no longer equals the state it was taken from", k.name)
				}
				wantOrig := valueOf(orig)
				for i := range cl.cells {
					cl.cells[i].observeDistinct(60)
					cl.cells[i].observe(-100)
				}
				if !reflect.DeepEqual(valueOf(orig), wantOrig) {
					t.Fatalf("%s: the original changed with its clone", k.name)
				}
			}
		}
	})

	t.Run("e_recycled_slabs", func(t *testing.T) {
		// Sealed slabs go back to a pool once combined and come out again
		// for later bricks, so an answer must own everything it holds. The
		// partials of one folded pass (a publisher and two attachers, each
		// with a catch-up) and of unshared runs are kept; 200 more queries
		// recycle the slabs; every kept partial must still hold the state it
		// was returned with, bit for bit.
		rnd := randutil.New(0xE5)
		s, err := brick.NewStore(brick.Schema{
			Dimensions: []brick.Dimension{{Name: "g", Max: 32, Buckets: 4}, {Name: "h", Max: 16, Buckets: 2},
				{Name: "u", Max: 1000, Buckets: 1}},
			Metrics: []brick.Metric{{Name: "m"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3000; r++ {
			if err := s.Insert([]uint32{uint32(rnd.Intn(32)), uint32(rnd.Intn(16)), uint32(rnd.Intn(1000))},
				[]float64{rnd.Float64() * 1e3}); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := s.EnsureBudget(0, 0.5); err != nil {
			t.Fatal(err)
		}
		aggs := []Aggregate{{Func: Sum, Metric: "m"}, {Func: CountDistinct, Metric: "u"}, {Func: Min, Metric: "m"}}
		shapes := []*Query{
			{Aggregates: aggs, GroupBy: []string{"g"}},
			{Aggregates: aggs, GroupBy: []string{"h", "g"}, Filter: map[string][2]uint32{"u": {100, 800}}},
			{Aggregates: aggs},
		}
		sched := NewScheduler(s, SchedulerConfig{Parallelism: 1})
		type kept struct {
			p    *Partial
			want map[string]groupValue
		}
		var keep []kept
		hold := func(p *Partial, shape int) {
			// The oracle is the serial Execute, which sums a group across
			// bricks in one register: its sums match to rounding only.
			want, err := Execute(s, shapes[shape])
			if err != nil {
				t.Fatal(err)
			}
			w, g := want.Finalize(), p.Finalize()
			if len(w.Rows) != len(g.Rows) {
				t.Fatalf("answer %d (shape %d) when returned: %d rows, Execute %d", len(keep), shape, len(g.Rows), len(w.Rows))
			}
			for i := range w.Rows {
				for j, v := range w.Rows[i] {
					if math.Abs(g.Rows[i][j]-v) > 1e-9*math.Abs(v) {
						t.Fatalf("answer %d (shape %d) when returned: row %d col %d %v, Execute %v", len(keep), shape, i, j, g.Rows[i][j], v)
					}
				}
			}
			keep = append(keep, kept{p, partialValue(p)})
		}

		claimed, release, _ := holdClaim(sched, 0)
		answers := make(chan *Partial, 3)
		run := func() {
			p, _, err := sched.Run(ctx, shapes[0], Opts{})
			if err != nil {
				t.Error(err)
			}
			answers <- p
		}
		go run()
		<-claimed
		for attached := int64(1); attached <= 2; attached++ {
			go run()
			waitFor(t, func() bool { return sched.Stats().Attached == attached })
		}
		release()
		for i := 0; i < 3; i++ {
			p := <-answers
			if p == nil {
				t.FailNow()
			}
			hold(p, 0)
		}
		if st := sched.Stats(); st.CatchupBricks != 2 {
			t.Fatalf("want two attachers catching up one brick each, got %+v", st)
		}
		for i, q := range shapes {
			p, _, err := sched.Run(ctx, q, Opts{Unshared: true})
			if err != nil {
				t.Fatal(err)
			}
			hold(p, i)
		}

		for i := 0; i < 200; i++ {
			if _, _, err := sched.Run(ctx, shapes[i%len(shapes)], Opts{Unshared: i%2 == 0}); err != nil {
				t.Fatal(err)
			}
		}
		for i, k := range keep {
			if !reflect.DeepEqual(partialValue(k.p), k.want) {
				t.Fatalf("kept answer %d changed after 200 more queries", i)
			}
		}
	})

	t.Run("matrix_non_dyadic", func(t *testing.T) {
		// Every path of the matrix must agree bit for bit on metrics whose
		// sums round: the reference is the plain unshared run.
		rnd := randutil.New(0x5AB)
		s, err := brick.NewStore(brick.Schema{
			Dimensions: []brick.Dimension{{Name: "d0", Max: 24, Buckets: 4}, {Name: "d1", Max: 12, Buckets: 3},
				{Name: "d2", Max: 6, Buckets: 2}},
			Metrics: []brick.Metric{{Name: "m0"}, {Name: "m1"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		// d0 and d1 change slowly, so encoded bricks hold them as runs and
		// the run-length kernels take part.
		for r := 0; r < 1500; r++ {
			if err := s.Insert([]uint32{uint32(r * 24 / 1500), uint32(r / 50 % 12), uint32(rnd.Intn(6))},
				[]float64{rnd.Float64(), rnd.Float64() * 1e6}); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := s.EnsureBudget(0, 0.5); err != nil {
			t.Fatal(err)
		}
		if st := s.EncodingStats(); st.Dims["rle"] == 0 {
			t.Fatalf("no dimension chose rle: %v", st.Dims)
		}
		s.SetDecodedCache(brick.NewDecodedCache(8 << 20))
		aggs := []Aggregate{{Func: Sum, Metric: "m0", Alias: "s0"}, {Func: Avg, Metric: "m1", Alias: "a1"},
			{Func: Min, Metric: "m1", Alias: "n1"}, {Func: CountDistinct, Metric: "d2", Alias: "c2"}}
		for _, q := range []*Query{
			{Aggregates: aggs},
			{Aggregates: aggs, GroupBy: []string{"d0"}},
			{Aggregates: aggs[:3], GroupBy: []string{"d1", "d0"}, Filter: map[string][2]uint32{"d2": {0, 3}}},
			{Aggregates: aggs[:2], GroupBy: []string{"d0", "d2"}, Filter: map[string][2]uint32{"d1": {2, 9}}},
			{Aggregates: aggs[1:], GroupBy: []string{"d2", "d1", "d0"}, Filter: map[string][2]uint32{"d0": {3, 20}}},
		} {
			ref, _, err := runUnshared(s, q, 1, Opts{})
			if err != nil {
				t.Fatal(err)
			}
			runPathMatrix(t, rnd, fmt.Sprintf("non-dyadic groupby %v", q.GroupBy), s, q, ref.Finalize())
		}
	})
}
