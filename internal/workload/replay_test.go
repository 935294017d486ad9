package workload

import (
	"testing"

	"cubrick/internal/brick"
	"cubrick/internal/engine"
	"cubrick/internal/randutil"
)

var replaySchema = brick.Schema{
	Dimensions: []brick.Dimension{
		{Name: "region", Max: 4, Buckets: 2},
		{Name: "app", Max: 10, Buckets: 5},
	},
	Metrics: []brick.Metric{{Name: "events"}, {Name: "latency"}},
}

func TestReplayShapesDistinctAndValid(t *testing.T) {
	rnd := randutil.New(1)
	r, err := NewQueryReplay(replaySchema, ReplayConfig{Shapes: 12, Skew: 1.3}, rnd)
	if err != nil {
		t.Fatal(err)
	}
	shapes := r.Shapes()
	if len(shapes) != 12 {
		t.Fatalf("got %d shapes, want 12", len(shapes))
	}
	keys := make(map[string]bool)
	for _, q := range shapes {
		if err := q.Validate(replaySchema); err != nil {
			t.Fatalf("invalid shape %+v: %v", q, err)
		}
		k := engine.FoldKey(q)
		if keys[k] {
			t.Fatalf("duplicate fold key %q", k)
		}
		keys[k] = true
	}
}

func TestReplayZipfSkew(t *testing.T) {
	rnd := randutil.New(2)
	r, err := NewQueryReplay(replaySchema, ReplayConfig{Shapes: 8, Skew: 1.5}, rnd)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[*engine.Query]int)
	for i := 0; i < 4000; i++ {
		counts[r.Next()]++
	}
	shapes := r.Shapes()
	hot := counts[shapes[0]]
	if hot < 4000/4 {
		t.Fatalf("hottest shape drawn %d/4000 times, want zipf-dominant", hot)
	}
	// Every draw must come from the population.
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 4000 {
		t.Fatalf("draws outside population: %d/4000 accounted", total)
	}
	// The hottest shape must strictly dominate the coldest.
	if cold := counts[shapes[len(shapes)-1]]; cold >= hot {
		t.Fatalf("no skew: hot=%d cold=%d", hot, cold)
	}
}

func TestReplayDeterministic(t *testing.T) {
	a, err := NewQueryReplay(replaySchema, ReplayConfig{Shapes: 6}, randutil.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewQueryReplay(replaySchema, ReplayConfig{Shapes: 6}, randutil.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Shapes() {
		if engine.FoldKey(a.Shapes()[i]) != engine.FoldKey(b.Shapes()[i]) {
			t.Fatalf("shape %d differs across same-seed builds", i)
		}
	}
	for i := 0; i < 100; i++ {
		if engine.FoldKey(a.Next()) != engine.FoldKey(b.Next()) {
			t.Fatalf("draw %d differs across same-seed streams", i)
		}
	}
}

func TestReplayConfigDefaultsAndErrors(t *testing.T) {
	// Shapes < 1 clamps to 1; Skew <= 1 defaults.
	r, err := NewQueryReplay(replaySchema, ReplayConfig{}, randutil.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Shapes()) != 1 {
		t.Fatalf("zero config gave %d shapes", len(r.Shapes()))
	}
	// A schema with no metrics cannot produce shapes.
	if _, err := NewQueryReplay(brick.Schema{
		Dimensions: replaySchema.Dimensions,
	}, ReplayConfig{Shapes: 2}, randutil.New(4)); err == nil {
		t.Fatal("expected error for metric-less schema")
	}
	// Asking for more distinct shapes than a tiny schema can express fails
	// instead of spinning.
	tiny := brick.Schema{
		Dimensions: []brick.Dimension{{Name: "d", Max: 2, Buckets: 1}},
		Metrics:    []brick.Metric{{Name: "m"}},
	}
	if _, err := NewQueryReplay(tiny, ReplayConfig{Shapes: 500}, randutil.New(5)); err == nil {
		t.Fatal("expected error for impossible shape count")
	}
}

func TestReplayDashboardShapes(t *testing.T) {
	schema := brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "ds", Max: 48, Buckets: 4},
			{Name: "app", Max: 10, Buckets: 5},
		},
		Metrics: []brick.Metric{{Name: "events"}},
	}
	cfg := ReplayConfig{
		Shapes: 10, TimeWindow: 10, TimeAlign: 4, LeaderboardProb: 1, LeaderboardLimit: 5,
	}
	r, err := NewQueryReplay(schema, cfg, randutil.New(11))
	if err != nil {
		t.Fatal(err)
	}
	leaderboards := 0
	for _, q := range r.Shapes() {
		if err := q.Validate(schema); err != nil {
			t.Fatalf("invalid shape %+v: %v", q, err)
		}
		f, ok := q.Filter["ds"]
		if !ok {
			t.Fatalf("shape %+v missing time window on ds", q)
		}
		lo, hi := f[0], f[1]
		if lo%4 != 0 || (hi+1)%4 != 0 {
			t.Fatalf("window [%d,%d] not aligned to 4", lo, hi)
		}
		// ceil(10/4) = 3 buckets of width 4.
		if hi-lo+1 != 12 {
			t.Fatalf("window [%d,%d] spans %d values, want 12", lo, hi, hi-lo+1)
		}
		if hi >= 48 {
			t.Fatalf("window [%d,%d] outside domain", lo, hi)
		}
		if q.Limit > 0 {
			leaderboards++
			if f := q.Aggregates[0].Func; q.Limit != 5 || !q.Desc || q.OrderBy != q.Aggregates[0].Name() ||
				len(q.GroupBy) == 0 || f != engine.Sum && f != engine.Count {
				t.Fatalf("bad leaderboard shape %+v", q)
			}
		}
	}
	if leaderboards == 0 {
		t.Fatal("LeaderboardProb=1 produced no leaderboard shapes")
	}
	// Unaligned windows keep the exact requested width.
	r2, err := NewQueryReplay(schema, ReplayConfig{Shapes: 8, TimeWindow: 10}, randutil.New(12))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range r2.Shapes() {
		f, ok := q.Filter["ds"]
		if !ok {
			t.Fatalf("shape %+v missing time window", q)
		}
		if f[1]-f[0]+1 != 10 {
			t.Fatalf("window [%d,%d] spans %d values, want 10", f[0], f[1], f[1]-f[0]+1)
		}
	}
}
