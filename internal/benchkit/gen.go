package benchkit

import (
	"fmt"
	"math/rand"
	"strings"
)

// The one schema every workload's table uses. Brick count per partition
// is the product of the bucket counts (16·4·4·1 = 256), so the frozen row
// counts give a few hundred to a thousand rows per brick: the engine is
// measured scanning bricks, not walking empty ones.
const (
	dimDS = iota
	dimRegion
	dimApp
	dimKind
	numDims
)

const numMetrics = 2

var (
	dimNames    = [numDims]string{"ds", "region", "app", "kind"}
	dimMax      = [numDims]uint32{128, 16, 1024, 64}
	dimBuckets  = [numDims]uint32{16, 4, 4, 1}
	metricNames = [numMetrics]string{"value", "samples"}
)

// rollupBucket is the width of the workers' rollup buckets on ds; it also
// equals the ds brick-bucket width (128/16), so "bucket-aligned" means
// both.
const rollupBucket = 8

// Rows is a columnar row set. benchkit keeps every row it loads so the
// oracle can recompute answers without asking the system under test.
type Rows struct {
	Dims    [numDims][]uint32
	Metrics [numMetrics][]float64
}

// Len returns the row count.
func (r *Rows) Len() int { return len(r.Dims[0]) }

func (r *Rows) add(d [numDims]uint32, m [numMetrics]float64) {
	for i := range d {
		r.Dims[i] = append(r.Dims[i], d[i])
	}
	for i := range m {
		r.Metrics[i] = append(r.Metrics[i], m[i])
	}
}

// newestDS is the first ds value of the newest bucket. Tables are loaded
// with older rows only; the newest bucket is what an ingest stream fills.
// Its bricks are therefore created by the first batch, raw and hot, and
// every batch lands in all of them, so they never cool enough for the
// compactor to compress them between batches. That matters at this
// commit: brick.Store.InsertBatch decompresses a brick and appends to it
// under two separate lock holds, and a compaction pass that compresses it
// in between leaves the brick with a stale blob and a row count no reader
// accepts ("blob has 1349 rows, brick has 1435"), failing every later
// query on it. Ingest into cold bricks hit that about once in 40 runs.
const newestDS = 120

// rowGen draws rows. Metric values are small non-negative integers, so
// sums are exact in float64 whatever the merge order and the oracle can
// demand near-equality.
type rowGen struct {
	r   *rand.Rand
	app *rand.Zipf
}

func newRowGen(seed int64) *rowGen {
	r := rand.New(rand.NewSource(seed))
	return &rowGen{r: r, app: rand.NewZipf(r, 1.1, 16, uint64(dimMax[dimApp]-1))}
}

func (g *rowGen) metrics() [numMetrics]float64 {
	return [numMetrics]float64{float64(g.r.Intn(1000)), float64(1 + g.r.Intn(9))}
}

// loaded draws a row of the initial load: ds (below newestDS), region and
// kind uniform, app zipf-valued — a few apps own most rows, as tenants do.
func (g *rowGen) loaded() ([numDims]uint32, [numMetrics]float64) {
	return [numDims]uint32{
		dimDS:     uint32(g.r.Intn(newestDS)),
		dimRegion: uint32(g.r.Intn(int(dimMax[dimRegion]))),
		dimApp:    uint32(g.app.Uint64()),
		dimKind:   uint32(g.r.Intn(int(dimMax[dimKind]))),
	}, g.metrics()
}

// ingested draws a row of the ingest stream: the newest ds bucket, every
// other dimension uniform, so that each batch reaches every brick of it.
func (g *rowGen) ingested() ([numDims]uint32, [numMetrics]float64) {
	return [numDims]uint32{
		dimDS:     newestDS + uint32(g.r.Intn(int(dimMax[dimDS]-newestDS))),
		dimRegion: uint32(g.r.Intn(int(dimMax[dimRegion]))),
		dimApp:    uint32(g.r.Intn(int(dimMax[dimApp]))),
		dimKind:   uint32(g.r.Intn(int(dimMax[dimKind]))),
	}, g.metrics()
}

// GenRows appends n seeded rows of an initial load to dst.
func GenRows(dst *Rows, seed int64, n int) {
	g := newRowGen(seed)
	for i := 0; i < n; i++ {
		dst.add(g.loaded())
	}
}

// AggFunc is an aggregate function the generator emits.
type AggFunc int

const (
	Sum AggFunc = iota
	Count
	Min
	Max
	Avg
)

var aggNames = [...]string{"sum", "count", "min", "max", "avg"}

// Agg is one select-list aggregate over a metric (ignored for Count).
type Agg struct {
	Func   AggFunc
	Metric int
}

func (a Agg) cql() string {
	if a.Func == Count {
		return "count(*)"
	}
	return aggNames[a.Func] + "(" + metricNames[a.Metric] + ")"
}

// Query is the generator's own description of a query: enough to print
// CQL for the system and to recompute the answer in the oracle.
type Query struct {
	Table   string
	Aggs    []Agg
	GroupBy []int              // dimension indexes
	Filter  [numDims][2]uint32 // inclusive ranges; the full domain when unfiltered
	TopK    int                // > 0: ORDER BY the first aggregate DESC LIMIT TopK
}

func fullFilter() [numDims][2]uint32 {
	var f [numDims][2]uint32
	for d := range f {
		f[d] = [2]uint32{0, dimMax[d] - 1}
	}
	return f
}

// CQL prints the query in the coordinator's dialect.
func (q *Query) CQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, a := range q.Aggs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.cql())
	}
	b.WriteString(" FROM ")
	b.WriteString(q.Table)
	sep := " WHERE "
	for d, r := range q.Filter {
		if r[0] == 0 && r[1] == dimMax[d]-1 {
			continue
		}
		fmt.Fprintf(&b, "%s%s BETWEEN %d AND %d", sep, dimNames[d], r[0], r[1])
		sep = " AND "
	}
	for i, d := range q.GroupBy {
		if i == 0 {
			b.WriteString(" GROUP BY ")
		} else {
			b.WriteString(", ")
		}
		b.WriteString(dimNames[d])
	}
	if q.TopK > 0 {
		fmt.Fprintf(&b, " ORDER BY %s DESC LIMIT %d", q.Aggs[0].cql(), q.TopK)
	}
	return b.String()
}

// aggMenu is what the random select lists draw from.
var aggMenu = []Agg{
	{Sum, 0}, {Count, 0}, {Min, 0}, {Max, 0}, {Avg, 0}, {Sum, 1}, {Max, 1}, {Avg, 1},
}

// monotoneMenu leaves out avg: under concurrent ingest the oracle bounds
// each answer between two snapshots, which needs aggregates that only
// move one way as rows arrive.
var monotoneMenu = []Agg{{Sum, 0}, {Count, 0}, {Min, 0}, {Max, 0}, {Sum, 1}, {Max, 1}}

func pickAggs(r *rand.Rand, menu []Agg) []Agg {
	n := 1 + r.Intn(3)
	perm := r.Perm(len(menu))
	out := make([]Agg, n)
	for i := range out {
		out[i] = menu[perm[i]]
	}
	return out
}

// randRange draws an inclusive range of the given width inside dim d.
func randRange(r *rand.Rand, d int, width uint32) [2]uint32 {
	lo := uint32(r.Intn(int(dimMax[d] - width + 1)))
	return [2]uint32{lo, lo + width - 1}
}

// unalignedDS draws a ds window of the given width whose ends both fall
// inside a bucket, so no bound of it is a rollup or brick boundary.
func unalignedDS(r *rand.Rand, width int) [2]uint32 {
	for {
		rg := randRange(r, dimDS, uint32(width))
		if rg[0]%rollupBucket != 0 && (rg[1]+1)%rollupBucket != 0 {
			return rg
		}
	}
}

// A queryGen yields one client's query stream.
type queryGen func() Query

// strata deals out numbers in [0, 1) in rounds of n: each round holds one
// jittered draw from each n-th of the interval, in random order. Over any
// stretch of a few rounds the draws cover the interval evenly, so two
// seconds of a query stream built from them cost the same as the next two
// and a time slice of the window measures the machine, not the luck of
// the draw; a plain uniform stream needs thousands of draws for that.
type strata struct {
	r    *rand.Rand
	n    int
	left []float64
}

func (s *strata) next() float64 {
	if len(s.left) == 0 {
		for _, i := range s.r.Perm(s.n) {
			s.left = append(s.left, (float64(i)+s.r.Float64())/float64(s.n))
		}
	}
	v := s.left[len(s.left)-1]
	s.left = s.left[:len(s.left)-1]
	return v
}

// between maps the next draw onto the integers lo..hi.
func (s *strata) between(lo, hi int) int { return lo + int(s.next()*float64(hi-lo+1)) }

// strataRound is the round length of every stratified query parameter.
const strataRound = 16

// adhocGen: every query differs from every other (random aggregates and
// group column, a random-width app range, an unaligned ds window). The
// app filter alone rules the rollup out, and a distinct filter is a
// distinct fold key and cache key.
func adhocGen(table string, r *rand.Rand) queryGen {
	groups := []int{dimRegion, dimKind, dimApp}
	appWidth, dsWidth, group := &strata{r: r, n: strataRound}, &strata{r: r, n: strataRound}, &strata{r: r, n: strataRound}
	return func() Query {
		q := Query{Table: table, Aggs: pickAggs(r, aggMenu), Filter: fullFilter()}
		q.GroupBy = []int{groups[group.between(0, len(groups)-1)]}
		q.Filter[dimApp] = randRange(r, dimApp, uint32(appWidth.between(64, 511)))
		q.Filter[dimDS] = unalignedDS(r, dsWidth.between(16, 64))
		return q
	}
}

// dashShapes is how many distinct dashboard panels dash_replay replays.
const dashShapes = 24

// dashGen: a fixed panel set drawn zipf(1.3). Panels are trailing,
// bucket-aligned ds windows; three ranks in ten are leaderboards (top 10
// apps by sum(value)), the rest group by rollup dimensions. The panels
// are the same for every seed, so the traffic mix does not move with it;
// the seed draws the data, the order of the replay and the drill-downs.
//
// One query in ten is a drill-down: a panel with a fresh random region
// and kind range on top, which no cache has seen. A closed loop issues
// cached replies so fast that recomputed panels alone are a few percent
// of the traffic, which would put p95 on the boundary between the two
// populations; with the drill-downs the slowest tenth is always
// recomputed work (rollup- or top-k-served), and the median always a hit.
func dashGen(table string, r *rand.Rand) queryGen {
	groupings := [][]int{{dimRegion}, {dimKind}, {dimRegion, dimKind}}
	shapes := make([]Query, dashShapes)
	for i := range shapes {
		q := Query{Table: table, Filter: fullFilter()}
		buckets := uint32(2 + i*5%7)
		q.Filter[dimDS] = [2]uint32{dimMax[dimDS] - buckets*rollupBucket, dimMax[dimDS] - 1}
		switch i % 10 {
		case 1, 4, 8:
			q.Aggs = []Agg{{Sum, 0}}
			q.GroupBy = []int{dimApp}
			q.TopK = 10
		default:
			for j := 0; j <= i%3; j++ {
				q.Aggs = append(q.Aggs, monotoneMenu[(i+2*j)%len(monotoneMenu)])
			}
			q.GroupBy = groupings[i/2%3]
		}
		shapes[i] = q
	}
	z := rand.NewZipf(r, 1.3, 1, dashShapes-1)
	return func() Query {
		q := shapes[z.Uint64()]
		if r.Intn(10) == 0 {
			q.Filter[dimRegion] = randRange(r, dimRegion, uint32(2+r.Intn(14)))
			q.Filter[dimKind] = randRange(r, dimKind, uint32(8+r.Intn(56)))
		}
		return q
	}
}

// fanoutGen: unique queries grouped by (app, kind) under an app range, so
// every partition ships thousands of groups and the coordinator merges and
// encodes them; the scan per partition is small.
func fanoutGen(table string, r *rand.Rand) queryGen {
	appWidth, dsWidth := &strata{r: r, n: strataRound}, &strata{r: r, n: strataRound}
	return func() Query {
		q := Query{Table: table, Aggs: []Agg{{Sum, 0}, {Count, 0}}, Filter: fullFilter()}
		q.GroupBy = []int{dimApp, dimKind}
		q.Filter[dimApp] = randRange(r, dimApp, uint32(appWidth.between(48, 143)))
		q.Filter[dimDS] = unalignedDS(r, dsWidth.between(20, 44))
		return q
	}
}

// faultGen: unique queries with 16-group partials, so a query's time is
// its slowest or failed partition call and nothing else.
//
// The app range stays narrower than an app bucket (256) on purpose. With
// replicas the coordinator hedges slow calls and cancels the loser; at
// this commit a worker whose only subscriber is cancelled at the wrong
// instant indexes an empty accumulator slice in
// engine.(*scanPass).visitTask and the whole process dies — but only on a
// brick the filter covers entirely. A range that can contain no whole
// bucket never meets that path, and the workload has no failing operation.
func faultGen(table string, r *rand.Rand) queryGen {
	appWidth, dsWidth := &strata{r: r, n: strataRound}, &strata{r: r, n: strataRound}
	return func() Query {
		q := Query{Table: table, Aggs: pickAggs(r, aggMenu), Filter: fullFilter()}
		q.GroupBy = []int{dimRegion}
		q.Filter[dimApp] = randRange(r, dimApp, uint32(appWidth.between(64, 255)))
		q.Filter[dimDS] = unalignedDS(r, dsWidth.between(10, 30))
		return q
	}
}
