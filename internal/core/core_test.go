package core

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"cubrick/internal/randutil"
)

func TestPartitionNames(t *testing.T) {
	if got := PartitionName("dim_users", 3); got != "dim_users#3" {
		t.Fatalf("PartitionName = %q", got)
	}
	tbl, p, err := SplitPartitionName("dim_users#3")
	if err != nil || tbl != "dim_users" || p != 3 {
		t.Fatalf("Split = %q %d %v", tbl, p, err)
	}
	for _, bad := range []string{"noseparator", "t#", "t#-1", "t#x"} {
		if _, _, err := SplitPartitionName(bad); err == nil {
			t.Errorf("SplitPartitionName(%q) accepted", bad)
		}
	}
	if err := ValidateTableName("ok_table"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "has#hash"} {
		if err := ValidateTableName(bad); err == nil {
			t.Errorf("ValidateTableName(%q) accepted", bad)
		}
	}
}

func TestMonotonicMapperConsecutive(t *testing.T) {
	m := MonotonicMapper{MaxShards: 100000}
	shards := Shards(m, "test_table", 4)
	for i := 1; i < len(shards); i++ {
		want := (shards[0] + int64(i)) % 100000
		if shards[i] != want {
			t.Fatalf("partition %d shard = %d, want %d (consecutive)", i, shards[i], want)
		}
	}
}

func TestMonotonicMapperWrapsAround(t *testing.T) {
	m := MonotonicMapper{MaxShards: 10}
	shards := Shards(m, "t", 10)
	seen := make(map[int64]bool)
	for _, s := range shards {
		if s < 0 || s >= 10 {
			t.Fatalf("shard %d out of range", s)
		}
		if seen[s] {
			t.Fatalf("collision within table despite ≤ maxShards partitions: %v", shards)
		}
		seen[s] = true
	}
}

// Property (§IV-A): the monotonic mapping never collides within a table as
// long as the table has at most MaxShards partitions.
func TestMonotonicNoSameTableCollisionProperty(t *testing.T) {
	f := func(name string, parts uint8) bool {
		if name == "" {
			name = "t"
		}
		m := MonotonicMapper{MaxShards: 1000}
		n := int(parts)%200 + 1
		seen := make(map[int64]bool)
		for _, s := range Shards(m, name, n) {
			if seen[s] {
				return false
			}
			seen[s] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNaiveMapperCollidesWithinTablesEventually(t *testing.T) {
	// With a small key space, birthday collisions within one table are
	// near-certain — the flaw that motivated the monotonic mapping.
	m := NaiveMapper{MaxShards: 50}
	collided := false
	for ti := 0; ti < 20 && !collided; ti++ {
		seen := make(map[int64]bool)
		for _, s := range Shards(m, fmt.Sprintf("table%d", ti), 16) {
			if seen[s] {
				collided = true
				break
			}
			seen[s] = true
		}
	}
	if !collided {
		t.Fatal("naive mapper produced no same-table collisions across 20 tables of 16 partitions in a 50-shard space")
	}
}

func TestMappersDeterministic(t *testing.T) {
	for _, m := range []Mapper{NaiveMapper{MaxShards: 1000}, MonotonicMapper{MaxShards: 1000}} {
		if m.Shard("t", 3) != m.Shard("t", 3) {
			t.Fatalf("%T not deterministic", m)
		}
	}
}

func TestAnalyzeCollisionsClasses(t *testing.T) {
	layouts := []TableLayout{
		{Table: "a", ShardOf: []int64{1, 2, 3}},    // clean
		{Table: "b", ShardOf: []int64{4, 4, 5}},    // same-table partition collision
		{Table: "c", ShardOf: []int64{3, 6}},       // cross-table with a (shard 3)
		{Table: "d", ShardOf: []int64{10, 11, 12}}, // shard collision via placement
	}
	hostOf := func(sh int64) string {
		switch sh {
		case 10, 11:
			return "h1" // two shards of table d on one host
		case 12:
			return "h2"
		default:
			return fmt.Sprintf("h%d", 100+sh)
		}
	}
	rep := AnalyzeCollisions(layouts, hostOf)
	if rep.Tables != 4 {
		t.Fatalf("Tables = %d", rep.Tables)
	}
	if rep.TablesWithSamePartitionCollision != 1 {
		t.Fatalf("same-table = %d, want 1", rep.TablesWithSamePartitionCollision)
	}
	if rep.TablesWithCrossPartitionCollision != 2 { // a and c share shard 3
		t.Fatalf("cross-table = %d, want 2", rep.TablesWithCrossPartitionCollision)
	}
	if rep.TablesWithShardCollision != 1 {
		t.Fatalf("shard collisions = %d, want 1", rep.TablesWithShardCollision)
	}
	if rep.FracSamePartition() != 0.25 || rep.FracCrossPartition() != 0.5 || rep.FracShardCollision() != 0.25 {
		t.Fatalf("fractions = %v %v %v", rep.FracSamePartition(), rep.FracCrossPartition(), rep.FracShardCollision())
	}
}

func TestAnalyzeCollisionsEmpty(t *testing.T) {
	rep := AnalyzeCollisions(nil, nil)
	if rep.FracSamePartition() != 0 || rep.FracShardCollision() != 0 {
		t.Fatal("empty report should be all zero")
	}
}

func TestWouldCollide(t *testing.T) {
	layouts := []TableLayout{{Table: "t", ShardOf: []int64{5, 6, 7}}}
	hostShards := map[int64]bool{6: true} // host already has shard 6
	if !WouldCollide(layouts, hostShards, 5) {
		t.Fatal("placing shard 5 next to 6 must collide (both hold partitions of t)")
	}
	if WouldCollide(layouts, hostShards, 99) {
		t.Fatal("unrelated shard flagged as collision")
	}
	if WouldCollide(layouts, map[int64]bool{99: true}, 5) {
		t.Fatal("host without t's shards flagged")
	}
}

func TestPartitionPolicySteadyState(t *testing.T) {
	p := DefaultPartitionPolicy()
	if got := p.PartitionsFor(1 << 20); got != 8 {
		t.Fatalf("small table partitions = %d, want 8", got)
	}
	// 1 GiB / 8 = 128 MiB > 64 MiB -> grow to 16 (64 MiB avg). OK at 16.
	if got := p.PartitionsFor(1 << 30); got != 16 {
		t.Fatalf("1GiB table partitions = %d, want 16", got)
	}
	// Monotone growth with size.
	prev := 0
	for _, sz := range []int64{1 << 20, 1 << 28, 1 << 30, 1 << 32, 1 << 34} {
		n := p.PartitionsFor(sz)
		if n < prev {
			t.Fatalf("partition count not monotone: %d after %d", n, prev)
		}
		prev = n
	}
}

func TestPartitionPolicyEvaluate(t *testing.T) {
	p := DefaultPartitionPolicy()
	if d, _ := p.Evaluate(1<<20, 8); d != Keep {
		t.Fatalf("small table decision = %v, want keep", d)
	}
	d, target := p.Evaluate(1<<30, 8) // avg 128MiB > 64MiB
	if d != Grow || target != 16 {
		t.Fatalf("grow decision = %v/%d, want grow/16", d, target)
	}
	d, target = p.Evaluate(10<<20, 16) // avg <4MiB with >8 partitions
	if d != Shrink || target != 8 {
		t.Fatalf("shrink decision = %v/%d, want shrink/8", d, target)
	}
	// Never shrink below the initial count.
	if d, _ := p.Evaluate(1, 8); d != Keep {
		t.Fatalf("tiny table at initial count = %v, want keep", d)
	}
	if d, _ := p.Evaluate(2<<40, 8); d != RejectSize {
		t.Fatalf("oversize table = %v, want reject-size", d)
	}
	for _, dec := range []Decision{Keep, Grow, Shrink, RejectSize, Decision(42)} {
		if dec.String() == "" {
			t.Fatal("empty Decision string")
		}
	}
}

// Property: PartitionsFor always yields an average partition size within
// the max threshold.
func TestPartitionsForBoundProperty(t *testing.T) {
	p := DefaultPartitionPolicy()
	f := func(raw uint32) bool {
		size := int64(raw) * 1000
		n := p.PartitionsFor(size)
		if n < p.InitialPartitions {
			return false
		}
		return size/int64(n) <= p.MaxPartitionBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCoordinatorStrategies(t *testing.T) {
	rnd := randutil.New(1)
	lookups := 0
	lookup := func(table string) (int, error) { lookups++; return 8, nil }

	// Strategy 1: always partition 0.
	p1 := &Picker{Strategy: AlwaysPartitionZero, Rand: rnd.Float64}
	for i := 0; i < 10; i++ {
		part, cost, err := p1.Pick("t")
		if err != nil || part != 0 || cost != (CoordinatorCost{}) {
			t.Fatalf("strategy1 = %d %+v %v", part, cost, err)
		}
	}

	// Strategy 2: forwarded — balanced but one extra hop.
	p2 := &Picker{Strategy: ForwardFromZero, Rand: rnd.Float64, LookupPartitions: lookup}
	seen := make(map[int]int)
	for i := 0; i < 800; i++ {
		part, cost, err := p2.Pick("t")
		if err != nil || cost.ExtraHops != 1 {
			t.Fatalf("strategy2 cost = %+v %v", cost, err)
		}
		seen[part]++
	}
	for part := 0; part < 8; part++ {
		if seen[part] == 0 {
			t.Fatalf("strategy2 never chose partition %d", part)
		}
	}

	// Strategy 3: lookup then random — extra round trip each time.
	lookups = 0
	p3 := &Picker{Strategy: LookupThenRandom, Rand: rnd.Float64, LookupPartitions: lookup}
	for i := 0; i < 5; i++ {
		_, cost, err := p3.Pick("t")
		if err != nil || cost.ExtraRoundTrips != 1 {
			t.Fatalf("strategy3 cost = %+v %v", cost, err)
		}
	}
	if lookups != 5 {
		t.Fatalf("strategy3 lookups = %d, want 5", lookups)
	}

	// Strategy 4: cached — one lookup total, then free.
	lookups = 0
	cache := NewPartitionCountCache()
	p4 := &Picker{Strategy: CachedRandom, Cache: cache, Rand: rnd.Float64, LookupPartitions: lookup}
	_, cost, err := p4.Pick("t")
	if err != nil || cost.ExtraRoundTrips != 1 {
		t.Fatalf("strategy4 first pick cost = %+v %v", cost, err)
	}
	for i := 0; i < 100; i++ {
		_, cost, err := p4.Pick("t")
		if err != nil || cost.ExtraRoundTrips != 0 || cost.ExtraHops != 0 {
			t.Fatalf("strategy4 cached pick cost = %+v %v", cost, err)
		}
	}
	if lookups != 1 {
		t.Fatalf("strategy4 lookups = %d, want 1", lookups)
	}

	for _, s := range []CoordinatorStrategy{AlwaysPartitionZero, ForwardFromZero, LookupThenRandom, CachedRandom, CoordinatorStrategy(9)} {
		if s.String() == "" {
			t.Fatal("empty strategy string")
		}
	}
}

func TestCoordinatorLookupError(t *testing.T) {
	boom := errors.New("boom")
	p := &Picker{Strategy: LookupThenRandom, Rand: func() float64 { return 0 },
		LookupPartitions: func(string) (int, error) { return 0, boom }}
	if _, _, err := p.Pick("t"); !errors.Is(err, boom) {
		t.Fatalf("Pick = %v, want lookup error", err)
	}
}

func TestPartitionCountCache(t *testing.T) {
	c := NewPartitionCountCache()
	if c.Get("t") != 0 {
		t.Fatal("empty cache returned non-zero")
	}
	c.Update("t", 8)
	if c.Get("t") != 8 || c.Len() != 1 {
		t.Fatal("update lost")
	}
	// Result metadata refresh after a re-partition.
	c.Update("t", 16)
	if c.Get("t") != 16 {
		t.Fatal("refresh lost")
	}
	c.Update("t", 0) // invalid counts ignored
	if c.Get("t") != 16 {
		t.Fatal("zero update clobbered cache")
	}
	c.Invalidate("t")
	if c.Get("t") != 0 || c.Len() != 0 {
		t.Fatal("invalidate failed")
	}
}

func TestQueryFanout(t *testing.T) {
	if got := QueryFanout(FullSharding, 1000, 8, 8); got != 1000 {
		t.Fatalf("full fanout = %d, want 1000", got)
	}
	if got := QueryFanout(PartialSharding, 1000, 8, 8); got != 8 {
		t.Fatalf("partial fanout = %d, want 8", got)
	}
	// Shard collisions reduce distinct hosts below partition count.
	if got := QueryFanout(PartialSharding, 1000, 8, 6); got != 6 {
		t.Fatalf("collided partial fanout = %d, want 6", got)
	}
	if FullSharding.String() != "full" || PartialSharding.String() != "partial" {
		t.Fatal("FanoutMode strings broken")
	}
}

// §IV-A worked example: the mapping tables in the paper show 4 partitions
// of dim_users mapping to 4 distinct shards, and the monotonic scheme
// assigning test_table consecutive ids. We verify distinctness and
// consecutiveness (the paper's absolute values depend on its internal hash
// function).
func TestPaperMappingTablesShape(t *testing.T) {
	m := MonotonicMapper{MaxShards: 100000}
	du := Shards(m, "dim_users", 4)
	seen := make(map[int64]bool)
	for _, s := range du {
		if seen[s] {
			t.Fatalf("dim_users shard repeated: %v", du)
		}
		seen[s] = true
	}
	tt := Shards(m, "test_table", 4)
	for i := 1; i < 4; i++ {
		if tt[i] != (tt[0]+int64(i))%100000 {
			t.Fatalf("test_table not consecutive: %v", tt)
		}
	}
}

func TestLayoutHelper(t *testing.T) {
	m := MonotonicMapper{MaxShards: 100}
	l := Layout(m, "t", 4)
	if l.Table != "t" || len(l.ShardOf) != 4 {
		t.Fatalf("Layout = %+v", l)
	}
	for p, sh := range l.ShardOf {
		if sh != m.Shard("t", p) {
			t.Fatalf("layout shard %d mismatch", p)
		}
	}
}

// RouteBatch hands each partition its rows by RouteRow, partitions in
// ascending order and rows in batch order, skips empty partitions, and
// stops at the first error.
func TestRouteBatch(t *testing.T) {
	const parts, rows = 8, 200
	dims := make([][]uint32, rows)
	mets := make([][]float64, rows)
	want := make(map[int]int) // partition -> rows
	for i := range dims {
		dims[i] = []uint32{uint32(i % 3), uint32(i % 5)} // 15 distinct rows
		mets[i] = []float64{float64(i)}
		want[RouteRow(dims[i], parts)]++
	}
	if len(want) == parts {
		t.Fatal("every partition gets rows; the empty-partition case goes unchecked")
	}
	last, calls := -1, 0
	err := RouteBatch(dims, mets, parts, func(p int, bd [][]uint32, bm [][]float64) error {
		if p <= last || len(bd) != want[p] || len(bm) != want[p] {
			t.Fatalf("partition %d after %d with %d/%d rows, want %d", p, last, len(bd), len(bm), want[p])
		}
		last, calls = p, calls+1
		for j := range bd {
			i := int(bm[j][0])
			if j > 0 && i <= int(bm[j-1][0]) || &dims[i][0] != &bd[j][0] || RouteRow(bd[j], parts) != p {
				t.Fatalf("partition %d row %d: batch row %d out of order or misrouted", p, j, i)
			}
		}
		return nil
	})
	if err != nil || calls != len(want) {
		t.Fatalf("%d calls for %d non-empty partitions, err %v", calls, len(want), err)
	}
	stop := errors.New("stop")
	calls = 0
	if err := RouteBatch(dims, mets, parts, func(int, [][]uint32, [][]float64) error { calls++; return stop }); err != stop || calls != 1 {
		t.Fatalf("RouteBatch after an error: err %v, %d calls", err, calls)
	}
}

func TestRouteRowDeterministicAndSpread(t *testing.T) {
	counts := make([]int, 8)
	for i := 0; i < 8000; i++ {
		dims := []uint32{uint32(i), uint32(i * 7)}
		p := RouteRow(dims, 8)
		if p != RouteRow(dims, 8) {
			t.Fatal("RouteRow not deterministic")
		}
		counts[p]++
	}
	for p, c := range counts {
		if c < 500 || c > 1500 {
			t.Fatalf("partition %d got %d/8000 rows — too skewed", p, c)
		}
	}
}
