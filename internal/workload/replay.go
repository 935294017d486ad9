package workload

import (
	"fmt"

	"cubrick/internal/brick"
	"cubrick/internal/engine"
	"cubrick/internal/randutil"
)

// Query-shape replay: dashboard traffic is not a stream of unique queries
// but a small population of distinct shapes (each widget re-issues its
// query on refresh) with heavily skewed repetition. The replay generator
// draws from a fixed set of distinct shapes with zipf skew, which is what
// makes result caching measurable: a repeat is exactly a draw of a shape
// already answered since the table last ingested.

// ReplayConfig parameterizes a query replay stream.
type ReplayConfig struct {
	// Shapes is how many distinct query shapes the stream draws from
	// (minimum 1).
	Shapes int
	// Skew is the zipf exponent across shapes (>1); larger concentrates
	// traffic on the hottest shapes. Values <= 1 default to 1.2.
	Skew float64
	// FilterProb is the probability a shape carries a range filter. Zero
	// defaults to 0.5; negative disables filters entirely.
	FilterProb float64
	// FilterDim, when set, names the dimension all filters apply to
	// (e.g. an unbucketed attribute dimension). Empty picks one at random
	// per shape.
	FilterDim string
	// Selectivity, when in (0, 1], fixes the filtered fraction of the
	// dimension domain; zero draws a uniformly random range as before.
	Selectivity float64
	// TimeWindow, when > 0, gives every shape a trailing "last N" window
	// predicate on dimension 0 spanning TimeWindow values — the dashboard
	// refresh pattern, where each widget re-queries a sliding window.
	TimeWindow int
	// TimeAlign, when > 1, snaps the window to multiples of TimeAlign so
	// the predicate lands exactly on time-bucket boundaries, as a
	// dashboard's aligned panels do.
	TimeAlign int
	// LeaderboardProb is the probability a grouped sum/count shape becomes
	// a leaderboard: ORDER BY its first aggregate DESC LIMIT
	// LeaderboardLimit. Zero or negative disables leaderboard shapes.
	LeaderboardProb float64
	// LeaderboardLimit is the LIMIT attached to leaderboard shapes
	// (defaults to 10).
	LeaderboardLimit int
}

// QueryReplay generates queries from a fixed population of distinct
// shapes with zipf-skewed repetition. Shape 0 is the hottest.
type QueryReplay struct {
	shapes []*engine.Query
	zipf   *randutil.Zipf
}

// NewQueryReplay builds the shape population for a schema and a skewed
// selector over it. Shapes are deterministic given the random source and
// pairwise distinct by fold key, so two equal draws really are the same
// query (and fold together), while different draws never do.
func NewQueryReplay(schema brick.Schema, cfg ReplayConfig, rnd *randutil.Source) (*QueryReplay, error) {
	if cfg.Shapes < 1 {
		cfg.Shapes = 1
	}
	skew := cfg.Skew
	if skew <= 1 {
		skew = 1.2
	}
	if len(schema.Dimensions) == 0 || len(schema.Metrics) == 0 {
		return nil, fmt.Errorf("workload: replay needs at least one dimension and one metric")
	}
	r := &QueryReplay{zipf: rnd.NewZipf(skew, uint64(cfg.Shapes))}
	seen := make(map[string]bool)
	for attempts := 0; len(r.shapes) < cfg.Shapes; attempts++ {
		if attempts > cfg.Shapes*100 {
			return nil, fmt.Errorf("workload: cannot draw %d distinct query shapes from schema (got %d)",
				cfg.Shapes, len(r.shapes))
		}
		q := randomShape(schema, cfg, rnd)
		key := engine.FoldKey(q)
		if seen[key] {
			continue
		}
		seen[key] = true
		r.shapes = append(r.shapes, q)
	}
	return r, nil
}

// randomShape draws one query shape: a small aggregate list, an optional
// GROUP BY, and an optional range filter — the dashboard-widget shapes the
// paper's traffic is made of.
func randomShape(schema brick.Schema, cfg ReplayConfig, rnd *randutil.Source) *engine.Query {
	q := &engine.Query{}
	metric := schema.Metrics[rnd.Intn(len(schema.Metrics))].Name
	switch rnd.Intn(4) {
	case 0:
		q.Aggregates = []engine.Aggregate{{Func: engine.Sum, Metric: metric}}
	case 1:
		q.Aggregates = []engine.Aggregate{{Func: engine.Count}}
	case 2:
		q.Aggregates = []engine.Aggregate{
			{Func: engine.Sum, Metric: metric},
			{Func: engine.Count},
		}
	default:
		q.Aggregates = []engine.Aggregate{{Func: engine.Avg, Metric: metric}}
	}
	if rnd.Intn(4) > 0 { // 3 in 4 shapes group
		d := schema.Dimensions[rnd.Intn(len(schema.Dimensions))]
		q.GroupBy = []string{d.Name}
	}
	prob := cfg.FilterProb
	if prob == 0 {
		prob = 0.5
	}
	if prob > 0 && rnd.Float64() < prob {
		d := schema.Dimensions[rnd.Intn(len(schema.Dimensions))]
		if cfg.FilterDim != "" {
			for _, sd := range schema.Dimensions {
				if sd.Name == cfg.FilterDim {
					d = sd
				}
			}
		}
		var lo, hi uint32
		if s := cfg.Selectivity; s > 0 && s <= 1 {
			width := uint32(s * float64(d.Max))
			if width < 1 {
				width = 1
			}
			if width > d.Max {
				width = d.Max
			}
			lo = uint32(rnd.Intn(int(d.Max-width) + 1))
			hi = lo + width - 1
		} else {
			lo = uint32(rnd.Intn(int(d.Max)))
			hi = lo + uint32(rnd.Intn(int(d.Max-lo)))
		}
		q.Filter = map[string][2]uint32{d.Name: {lo, hi}}
	}
	// Dashboard time window: a trailing "last N" range on dimension 0,
	// optionally snapped to time-bucket boundaries. Overrides any random
	// filter that happened to pick the time dimension.
	if cfg.TimeWindow > 0 {
		d := schema.Dimensions[0]
		max := int(d.Max)
		w := cfg.TimeWindow
		if w > max {
			w = max
		}
		end := w - 1 + rnd.Intn(max-w+1)
		lo, hi := end-w+1, end
		if a := cfg.TimeAlign; a > 1 && max/a > 0 {
			buckets := max / a
			wb := (w + a - 1) / a
			if wb > buckets {
				wb = buckets
			}
			endB := wb + rnd.Intn(buckets-wb+1)
			lo, hi = (endB-wb)*a, endB*a-1
		}
		if q.Filter == nil {
			q.Filter = make(map[string][2]uint32, 1)
		}
		q.Filter[d.Name] = [2]uint32{uint32(lo), uint32(hi)}
	}
	// Leaderboard shapes: grouped sum/count aggregates become
	// ORDER BY <agg> DESC LIMIT k.
	if cfg.LeaderboardProb > 0 && len(q.GroupBy) > 0 && rnd.Float64() < cfg.LeaderboardProb {
		if a := q.Aggregates[0]; a.Func == engine.Sum || a.Func == engine.Count {
			k := cfg.LeaderboardLimit
			if k < 1 {
				k = 10
			}
			q.OrderBy = a.Name()
			q.Desc = true
			q.Limit = k
		}
	}
	return q
}

// Next draws the next query of the stream. The returned query is shared
// with other draws of the same shape and must not be mutated.
func (r *QueryReplay) Next() *engine.Query {
	return r.shapes[r.zipf.Next()]
}

// Shapes returns the distinct shape population, hottest first.
func (r *QueryReplay) Shapes() []*engine.Query { return r.shapes }
