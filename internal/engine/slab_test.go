package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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
		for _, q := range []*Query{
			{Aggregates: []Aggregate{{Func: Sum, Metric: "m"}, {Func: Max, Metric: "m"}}, GroupBy: []string{"g"}},
			{Aggregates: []Aggregate{{Func: Count}}, GroupBy: []string{"g"}, Filter: map[string][2]uint32{"h": {5, 40}}},
			// A 256×16-point brick domain fills the dense kernel exactly; the
			// combiner's 4096×64-point schema domain goes to the hashed one.
			{Aggregates: []Aggregate{{Func: Sum, Metric: "m"}, {Func: Count}}, GroupBy: []string{"g", "h"}},
		} {
			p, _, err := runPartial(context.Background(), s, q, Opts{Parallelism: 1}) // warms the decoded cache
			if err != nil {
				t.Fatal(err)
			}
			if p.Groups() < groups*16*9/10 {
				t.Fatalf("%d groups per brick: the run found only %d groups", groups, p.Groups())
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, _, err := runPartial(context.Background(), s, q, Opts{Parallelism: 1}); err != nil {
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

// cellValue is a cell's state by value, sketch registers included.
type cellValue struct {
	sum, min, max float64
	count         int64
	sketch        *hll.Sketch // a private copy
}

func cellValueOf(c cell) cellValue {
	return cellValue{sum: c.sum, min: c.min, max: c.max, count: c.count, sketch: c.sketch.Clone()}
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
	tasks, _ := s.PlanScan(nil, nil)
	es := &encScratch{}
	var ids []uint64
	slabs := make(map[uint64]*groupSlab)
	for i := range tasks {
		task := &tasks[i]
		acc := es.kernels.pick(c, task.Bounds)
		if _, err := task.VisitBatch(&c.projFull, nil, func(b *brick.Batch) error {
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
// across an insertion that moves the slab, (c) a sketch aliased between
// two answers of one store, (e) a recycled slab still reachable from an
// answer, and (f) a reused Combiner carrying state, or a buffer it gave
// away, from one query into the next. The matrix case runs the run matrix
// on non-dyadic metrics, where any cell that changed the order of float
// additions would show.
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
		aggs := []Aggregate{{Func: Min, Metric: "pos"}, {Func: Max, Metric: "neg"}, {Func: Max, Metric: "pos"}, {Func: Min, Metric: "neg"}}
		for round := 0; round < 3; round++ {
			for _, q := range []*Query{
				{Aggregates: aggs, GroupBy: []string{"g"}},
				{Aggregates: aggs[1:], GroupBy: []string{"h", "g"}, Filter: map[string][2]uint32{"g": {3, 60}}},
				{Aggregates: aggs[:3]},
				{Aggregates: aggs, GroupBy: []string{"h"}, Filter: map[string][2]uint32{"h": {1, 6}}},
			} {
				got, _, err := runPartial(ctx, s, q, Opts{Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				if err := Oracle.Equal(reference(t, q, s), got.Finalize()); err != nil {
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
				want := Oracle.Answer(reference(t, q, s))
				if err := Oracle.Equal(want, base.slab().partial(q).Finalize()); err != nil {
					t.Fatalf("max %d groupby %v: %v", max, q.GroupBy, err)
				}
			}
		}
	})

	t.Run("c_no_aliasing", func(t *testing.T) {
		// A CountDistinct query run twice at once over one store: no sketch
		// may be shared by the two answers.
		s := loadStore(t)
		q := &Query{Aggregates: []Aggregate{{Func: CountDistinct, Metric: "region"}, {Func: Sum, Metric: "events"}},
			GroupBy: []string{"app"}}
		want := reference(t, q, s)
		answers := make(chan *Partial, 2)
		run := func() {
			p, _, err := runPartial(ctx, s, q, Opts{Parallelism: 1})
			if err != nil {
				t.Error(err)
			}
			answers <- p
		}
		go run()
		go run()
		owners := make(map[*hll.Sketch]int)
		for i := 0; i < 2; i++ {
			p := <-answers
			if p == nil {
				t.FailNow()
			}
			if err := Oracle.Equal(want, p.Finalize()); err != nil {
				t.Fatal(err)
			}
			if err := partialSketches(p, owners, i); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("e_recycled_slabs", func(t *testing.T) {
		// Sealed slabs go back to a pool once combined and come out again
		// for later bricks, so an answer must own everything it holds. One
		// partial per shape is kept; 200 more queries recycle the slabs;
		// every kept partial must still hold the state it was returned with,
		// bit for bit.
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
		type kept struct {
			p    *Partial
			want map[string]groupValue
		}
		var keep []kept
		hold := func(p *Partial, shape int) {
			if err := Oracle.Equal(reference(t, shapes[shape], s), p.Finalize()); err != nil {
				t.Fatalf("answer %d (shape %d) when returned: %v", len(keep), shape, err)
			}
			keep = append(keep, kept{p, partialValue(p)})
		}
		for i, q := range shapes {
			p, _, err := runPartial(ctx, s, q, Opts{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			hold(p, i)
		}

		for i := 0; i < 200; i++ {
			if _, _, err := runPartial(ctx, s, shapes[i%len(shapes)], Opts{Parallelism: 1}); err != nil {
				t.Fatal(err)
			}
		}
		for i, k := range keep {
			if !reflect.DeepEqual(partialValue(k.p), k.want) {
				t.Fatalf("kept answer %d changed after 200 more queries", i)
			}
		}
	})

	t.Run("f_reused_combiner", func(t *testing.T) {
		// One Combiner, Reset between queries, answers a sequence that walks
		// every combiner kernel with and without COUNT(DISTINCT), twice, on
		// non-dyadic metrics. Each answer must encode to the bytes a fresh
		// combiner's does; Reset must leave no sketch in the cells it keeps;
		// a blob encoded before a Reset, and a Partial the combiner handed
		// over, must not change with later queries; AppendBinary must
		// equal Partial(q).MarshalBinary() byte for byte; and a combiner
		// holding a run refuses another until Reset.
		schema := brick.Schema{
			Dimensions: []brick.Dimension{{Name: "a", Max: 64, Buckets: 4}, {Name: "b", Max: 1 << 20, Buckets: 2},
				{Name: "c", Max: 1 << 20, Buckets: 1}, {Name: "d", Max: 1 << 30, Buckets: 1}, {Name: "u", Max: 1000, Buckets: 1}},
			Metrics: []brick.Metric{{Name: "m"}},
		}
		s, err := brick.NewStore(schema)
		if err != nil {
			t.Fatal(err)
		}
		rnd := randutil.New(0xF)
		for r := 0; r < 3000; r++ {
			dims := []uint32{uint32(rnd.Intn(64)), uint32(rnd.Intn(40)) * 20000, uint32(rnd.Intn(30)) * 30000,
				uint32(rnd.Intn(10)) * 100_000_000, uint32(rnd.Intn(1000))}
			if err := s.Insert(dims, []float64{rnd.Float64() * 1e3}); err != nil {
				t.Fatal(err)
			}
		}
		plain := []Aggregate{{Func: Sum, Metric: "m"}, {Func: Min, Metric: "m"}}
		distinct := []Aggregate{{Func: Sum, Metric: "m"}, {Func: CountDistinct, Metric: "u"}, {Func: Max, Metric: "m"}}
		kernels := []struct {
			kernel  string
			groupBy []string
		}{
			{"*engine.globalAcc", nil},
			{"*engine.denseAcc", []string{"a"}},
			{"*engine.hashAcc", []string{"b", "c"}},
			{"*engine.hashAcc", []string{"b", "c", "d"}},
		}
		one := Opts{Parallelism: 1}
		type kept struct {
			blob []byte
			want []byte
			p    *Partial
			pv   map[string]groupValue
		}
		var keep []kept
		var cb Combiner
		for round := 0; round < 2; round++ {
			for i, k := range kernels {
				for j, aggs := range [][]Aggregate{plain, distinct} {
					q := &Query{Aggregates: aggs, GroupBy: k.groupBy}
					if round == 1 {
						q.Filter = map[string][2]uint32{"a": {5, 50}}
					}
					if _, err := Run(ctx, q, one, &cb, s); err != nil {
						t.Fatal(err)
					}
					if got := fmt.Sprintf("%T", cb.acc); got != k.kernel {
						t.Fatalf("groupby %v: combiner picked %s, want %s", k.groupBy, got, k.kernel)
					}
					var fresh Combiner
					if _, err := Run(ctx, q, one, &fresh, s); err != nil {
						t.Fatal(err)
					}
					want := fresh.AppendBinary(q, nil)
					fp := fresh.Partial(q)
					if err := Oracle.Equal(reference(t, q, s), fp.Finalize()); err != nil {
						t.Fatalf("groupby %v: %v", k.groupBy, err)
					}
					marshalled, err := fp.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(want, marshalled) {
						t.Fatalf("groupby %v: AppendBinary and Partial(q).MarshalBinary() differ", k.groupBy)
					}
					blob := cb.AppendBinary(q, nil)
					if !bytes.Equal(blob, want) {
						t.Fatalf("round %d groupby %v aggs %d: the reused combiner's answer differs from a fresh one's",
							round, k.groupBy, len(aggs))
					}
					kp := kept{blob: blob, want: bytes.Clone(blob)}
					if (i+j+round)%3 == 0 {
						// Hand the groups over: the combiner then starts the
						// next query without the buffers it gave away.
						kp.p = cb.Partial(q)
						kp.pv = partialValue(kp.p)
					}
					keep = append(keep, kp)
					cb.Reset()
					for _, sl := range []*groupSlab{&cb.ks.global.groupSlab, &cb.ks.dense.groupSlab,
						&cb.ks.hash.groupSlab} {
						for _, c := range sl.cells[:cap(sl.cells)] {
							if c.sketch != nil {
								t.Fatalf("groupby %v: a sketch survives Reset", k.groupBy)
							}
						}
					}
				}
			}
		}
		for i, k := range keep {
			if !bytes.Equal(k.blob, k.want) {
				t.Fatalf("blob %d changed after later queries", i)
			}
			if k.p != nil && !reflect.DeepEqual(partialValue(k.p), k.pv) {
				t.Fatalf("handed-over partial %d changed after later queries", i)
			}
		}

		// A combiner holds one run: a second run into it is refused, of
		// the same shape or another, until Reset.
		q := &Query{Aggregates: plain, GroupBy: []string{"a"}}
		cb.Reset()
		if _, err := Run(ctx, q, one, &cb, s); err != nil {
			t.Fatal(err)
		}
		want := cb.AppendBinary(q, nil)
		for _, q2 := range []*Query{q, {Aggregates: distinct, GroupBy: []string{"a", "b"}}} {
			if _, err := Run(ctx, q2, Opts{}, &cb, s); !errors.Is(err, errCombinerInUse) {
				t.Fatalf("groupby %v, %d aggregates: %v, want errCombinerInUse", q2.GroupBy, len(q2.Aggregates), err)
			}
		}
		if !bytes.Equal(cb.AppendBinary(q, nil), want) {
			t.Fatal("a refused run changed the combiner's answer")
		}
	})

	t.Run("matrix_non_dyadic", func(t *testing.T) {
		// Every cell of the run matrix must agree bit for bit with the oracle
		// on metrics whose sums round.
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
			runMatrix(t, fmt.Sprintf("non-dyadic groupby %v", q.GroupBy), s, q, reference(t, q, s))
		}
	})
}
