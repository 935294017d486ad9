package partition

import (
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"cubrick/internal/admission"
	"cubrick/internal/brick"
	"cubrick/internal/engine"
	"cubrick/internal/metrics"
)

func testSchema() brick.Schema {
	return brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "ds", Max: 40, Buckets: 8},
			{Name: "app", Max: 20, Buckets: 4},
		},
		Metrics: []brick.Metric{{Name: "value"}},
	}
}

// ingest loads n rows whose value metric is scale, in two batches: first
// the rows with ds < 5 — they all fall in one brick, the only one rawQuery
// scans, which so reaches the same epoch in every store fed this way —
// then the rest.
func ingest(t *testing.T, st *brick.Store, n int, scale float64) {
	t.Helper()
	var dims [2][2][]uint32 // batch, column, row
	var mets [2][1][]float64
	for i := 0; i < n; i++ {
		b := 1
		if i%40 < 5 {
			b = 0
		}
		dims[b][0] = append(dims[b][0], uint32(i)%40)
		dims[b][1] = append(dims[b][1], uint32(i)%20)
		mets[b][0] = append(mets[b][0], scale)
	}
	for b := range dims {
		if err := st.InsertBatch(dims[b][:], mets[b][:]); err != nil {
			t.Fatal(err)
		}
	}
}

// groupQuery groups the rows with ds in 5..34 by app; rawQuery filters on
// a single ds value, which lies in the first-ingested brick alone.
var (
	groupQuery = &engine.Query{
		Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value"}, {Func: engine.Count}},
		GroupBy:    []string{"app"},
		Filter:     map[string][2]uint32{"ds": {5, 34}},
	}
	rawQuery = &engine.Query{
		Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value"}},
		Filter:     map[string][2]uint32{"ds": {3, 3}},
	}
)

func mustPartial(t *testing.T, s *Set, name string, q *engine.Query, o Opts) (*engine.Partial, engine.ExecInfo) {
	t.Helper()
	var cb engine.Combiner
	info, _, err := s.Partial(context.Background(), []string{name}, q, o, &cb)
	if err != nil {
		t.Fatal(err)
	}
	return cb.Partial(q), info
}

// firstAgg sums the first aggregate column over every result row.
func firstAgg(p *engine.Partial, groupCols int) float64 {
	var total float64
	for _, row := range p.Finalize().Rows {
		total += row[groupCols]
	}
	return total
}

// TestLifecycle: add → ingest → query → stop serving leaves nothing
// behind, however the partition goes; a partition re-created under the
// name answers from its own rows only.
func TestLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name string
		drop func(*Set)
	}{
		{"Drop", func(s *Set) {
			if !s.Drop("p") {
				t.Fatal("Drop reported nothing dropped")
			}
		}},
		{"Reset", (*Set).Reset},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{})
			if err := s.Add("p", testSchema()); err != nil {
				t.Fatal(err)
			}
			if err := s.Add("p", testSchema()); !errors.Is(err, ErrExists) {
				t.Fatalf("duplicate Add = %v, want ErrExists", err)
			}
			st, _ := s.Store("p")
			ingest(t, st, 400, 1)
			if p, _ := mustPartial(t, s, "p", groupQuery, Opts{}); firstAgg(p, 1) != 300 {
				t.Fatalf("grouped sum = %v, want 300", firstAgg(p, 1))
			}
			if p, _ := mustPartial(t, s, "p", rawQuery, Opts{}); firstAgg(p, 0) != 10 {
				t.Fatalf("raw sum = %v, want 10", firstAgg(p, 0))
			}

			tc.drop(s)
			if s.Len() != 0 || len(s.Stores()) != 0 {
				t.Fatalf("%d entries left", s.Len())
			}
			if _, ok := s.Store("p"); ok {
				t.Fatal("store survives the drop")
			}
			if _, _, err := s.Partial(context.Background(), []string{"p"}, rawQuery, Opts{}, new(engine.Combiner)); !errors.Is(err, ErrNoPartition) {
				t.Fatalf("query after drop = %v, want ErrNoPartition", err)
			}
			if s.Drop("p") {
				t.Fatal("second Drop reported a partition")
			}

			// Same name, same brick ids and epochs, different data.
			if err := s.Add("p", testSchema()); err != nil {
				t.Fatal(err)
			}
			st, _ = s.Store("p")
			ingest(t, st, 400, 7)
			if p, _ := mustPartial(t, s, "p", rawQuery, Opts{}); firstAgg(p, 0) != 70 {
				t.Fatalf("re-created partition: sum %v, want 70", firstAgg(p, 0))
			}
			if p, _ := mustPartial(t, s, "p", groupQuery, Opts{}); firstAgg(p, 1) != 7*300 {
				t.Fatalf("re-created partition grouped sum = %v, want %v", firstAgg(p, 1), 7*300)
			}
		})
	}
}

// TestAdoptStagedStore: a store built off to the side and filled by an
// import (a migration receive) serves from the moment it is adopted, and
// ingest after adoption shows in the very next answer.
func TestAdoptStagedStore(t *testing.T) {
	src, _ := brick.NewStore(testSchema())
	ingest(t, src, 400, 2)
	blob, err := src.Export()
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{DecodedCacheBytes: 1 << 20, Metrics: metrics.NewRegistry()})
	staged, err := s.NewStore(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := staged.Import(blob); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatal("a staged store is served before adoption")
	}
	if err := s.Adopt("p", staged); err != nil {
		t.Fatal(err)
	}
	if err := s.Adopt("p", staged); !errors.Is(err, ErrExists) {
		t.Fatalf("second Adopt = %v, want ErrExists", err)
	}
	if p, _ := mustPartial(t, s, "p", groupQuery, Opts{}); firstAgg(p, 1) != 2*300 {
		t.Fatalf("adopted store: sum %v, want 600", firstAgg(p, 1))
	}
	ingest(t, staged, 40, 2)
	if p, _ := mustPartial(t, s, "p", groupQuery, Opts{}); firstAgg(p, 1) != 2*330 {
		t.Fatalf("after ingest: sum %v, want 660", firstAgg(p, 1))
	}
}

// TestDropRetiresStore: a dropped partition's bricks leave the shared
// decoded-column cache, whether dropped alone or by Reset.
func TestDropRetiresStore(t *testing.T) {
	s := New(Config{DecodedCacheBytes: 1 << 20})
	for _, name := range []string{"a", "b", "c"} {
		if err := s.Add(name, testSchema()); err != nil {
			t.Fatal(err)
		}
		st, _ := s.Store(name)
		ingest(t, st, 400, 1)
		if _, _, err := st.EnsureBudget(0, 0.5); err != nil {
			t.Fatal(err)
		}
		mustPartial(t, s, name, groupQuery, Opts{})
	}
	per := s.decodedCache.Stats().Entries / 3
	if per == 0 {
		t.Fatal("the partials filled no decoded-cache entry")
	}
	s.Drop("a")
	if got := s.decodedCache.Stats().Entries; got != 2*per {
		t.Fatalf("after Drop: %d entries, want %d", got, 2*per)
	}
	s.Reset()
	if st := s.decodedCache.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("after Reset the cache holds %+v", st)
	}
}

// TestPartialOptions: NoCache answers as the cached path does and leaves
// the decoded-column cache untouched.
func TestPartialOptions(t *testing.T) {
	s := New(Config{DecodedCacheBytes: 1 << 20})
	if err := s.Add("p", testSchema()); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Store("p")
	ingest(t, st, 400, 1)
	if _, _, err := st.EnsureBudget(0, 0.5); err != nil {
		t.Fatal(err)
	}
	cached, _ := mustPartial(t, s, "p", groupQuery, Opts{})
	before := s.decodedCache.Stats()
	if before.Misses == 0 {
		t.Fatalf("the cached run never consulted the decoded-column cache: %+v", before)
	}
	bypassed, _ := mustPartial(t, s, "p", groupQuery, Opts{NoCache: true})
	if got, want := bypassed.Finalize().Rows, cached.Finalize().Rows; !reflect.DeepEqual(got, want) {
		t.Fatalf("cache-bypassed rows %v, want %v", got, want)
	}
	if got := s.decodedCache.Stats(); got != before {
		t.Fatalf("the bypassed run touched the decoded-column cache: %+v -> %+v", before, got)
	}
}

// TestPartialAdmission: a full admission queue sheds before the Admitted
// hook, a free slot runs the hook exactly once before execution, and the
// epoch returned is the one read before the run.
func TestPartialAdmission(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	if err := s.Add("p", testSchema()); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Store("p")
	ingest(t, st, 100, 1)
	tkt, err := s.Admission().Admit(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	o := Opts{Admitted: func(time.Duration) { calls++ }}
	if _, _, err := s.Partial(context.Background(), []string{"p"}, rawQuery, o, new(engine.Combiner)); !errors.Is(err, admission.ErrQueueFull) {
		t.Fatalf("with the slot held: %v, want ErrQueueFull", err)
	}
	if calls != 0 {
		t.Fatal("Admitted ran for a shed request")
	}
	tkt.Release()
	_, epochs, err := s.Partial(context.Background(), []string{"p"}, rawQuery, o, new(engine.Combiner))
	if err != nil || calls != 1 {
		t.Fatalf("with the slot free: err %v, %d Admitted calls", err, calls)
	}
	if len(epochs) != 1 || epochs[0] != st.Epoch() || epochs[0] == 0 {
		t.Fatalf("epochs = %v, store at %d", epochs, st.Epoch())
	}
	if s.Admission().Running() != 0 {
		t.Fatal("Partial kept its admission slot")
	}
	if New(Config{}).Admission() != nil {
		t.Fatal("MaxConcurrent 0 built an admission controller")
	}
}

// TestPartialJoin: a joined query finds its dimension table in the set,
// under the table's plain name, and answers in the call's one pass; a
// join table the set does not serve fails the call with ErrNoPartition
// before it is admitted.
func TestPartialJoin(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	for _, name := range []string{"f#0", "f#1"} {
		if err := s.Add(name, testSchema()); err != nil {
			t.Fatal(err)
		}
		st, _ := s.Store(name)
		ingest(t, st, 400, 1)
	}
	dimSchema := brick.Schema{Dimensions: []brick.Dimension{{Name: "app", Max: 20, Buckets: 4}, {Name: "team", Max: 4, Buckets: 4}}}
	if err := s.Add("apps", dimSchema); err != nil {
		t.Fatal(err)
	}
	dim, _ := s.Store("apps")
	for app := uint32(0); app < 20; app++ {
		if err := dim.Insert([]uint32{app, app % 4}, nil); err != nil {
			t.Fatal(err)
		}
	}
	q := &engine.Query{
		Aggregates: []engine.Aggregate{{Func: engine.Count}},
		GroupBy:    []string{"team"},
		Join:       &engine.JoinSpec{Table: "apps", On: "app", Attrs: []string{"team"}},
	}
	var cb engine.Combiner
	if _, _, err := s.Partial(context.Background(), []string{"f#0", "f#1"}, q, Opts{}, &cb); err != nil {
		t.Fatal(err)
	}
	// 800 rows over 20 apps, 5 apps a team.
	rows := cb.Partial(q).Finalize().Rows
	if len(rows) != 4 {
		t.Fatalf("%d teams, want 4", len(rows))
	}
	for _, row := range rows {
		if row[1] != 200 {
			t.Fatalf("team %v counts %v rows, want 200", row[0], row[1])
		}
	}
	tkt, err := s.Admission().Admit(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tkt.Release()
	ghost := *q
	ghost.Join = &engine.JoinSpec{Table: "ghost", On: "app", Attrs: []string{"team"}}
	if _, _, err := s.Partial(context.Background(), []string{"f#0"}, &ghost, Opts{}, new(engine.Combiner)); !errors.Is(err, ErrNoPartition) {
		t.Fatalf("unknown join table with the slot held = %v, want ErrNoPartition", err)
	}
}

// TestCompactAndDecay cools every partition's bricks and checks each pass
// walks all of them one rung down the tier ladder, summed across stores.
func TestCompactAndDecay(t *testing.T) {
	s := New(Config{})
	total := 0
	for _, name := range []string{"a", "b"} {
		if err := s.Add(name, testSchema()); err != nil {
			t.Fatal(err)
		}
		st, _ := s.Store(name)
		ingest(t, st, 200, 1)
		total += st.BrickCount()
	}
	s.DecayHotness(0)
	cfg := brick.CompactionConfig{EncodeBelow: 1, EvictBelow: 1}
	stats, err := s.Compact(cfg)
	if err != nil || stats.Encoded != total || stats.Evicted != 0 {
		t.Fatalf("pass 1 = %+v, %v; want %d encoded", stats, err, total)
	}
	stats, err = s.Compact(cfg)
	if err != nil || stats.Evicted != total {
		t.Fatalf("pass 2 = %+v, %v; want %d evicted", stats, err, total)
	}
	for _, st := range s.Stores() {
		if got := st.CompressedBrickCount(); got != st.BrickCount() {
			t.Fatalf("%d of %d bricks compressed", got, st.BrickCount())
		}
	}
}

// TestFlags: the defaults describe a cache-less, unthrottled worker; every
// serving flag parses into its Config field, except the retired -fold,
// -brick-cache-bytes and -rollup-{time-dim,bucket,dims}, which parse and
// change nothing, and the deleted -rollup-distinct, which fails; and
// README's table lists each flag with its default, so the documentation
// cannot drift from RegisterFlags.
func TestFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := RegisterFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	cfg := f.Config()
	if cfg.QueueDepth != 64 || cfg.MaxConcurrent != 0 || cfg.DecodedCacheBytes != 0 {
		t.Fatalf("default config = %+v", cfg)
	}
	defaults := cfg
	if f.CompactInterval != 0 || f.Compaction != (brick.CompactionConfig{EncodeBelow: 1, EvictBelow: 0.1}) {
		t.Fatalf("default compaction = %v %+v", f.CompactInterval, f.Compaction)
	}

	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	f = RegisterFlags(fs)
	err := fs.Parse(strings.Fields("-decoded-cache-bytes 8 -max-concurrent-queries 3 -queue-depth 2 " +
		"-compact-interval 1s -compact-encode-below 5 -compact-evict-below 1 -compact-promote-above 9"))
	if err != nil {
		t.Fatal(err)
	}
	cfg = f.Config()
	if cfg.DecodedCacheBytes != 8 || cfg.MaxConcurrent != 3 || cfg.QueueDepth != 2 {
		t.Fatalf("parsed config = %+v", cfg)
	}
	if f.CompactInterval != time.Second || f.Compaction != (brick.CompactionConfig{EncodeBelow: 5, EvictBelow: 1, PromoteAbove: 9}) {
		t.Fatalf("parsed compaction = %v %+v", f.CompactInterval, f.Compaction)
	}

	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	f = RegisterFlags(fs)
	retired := strings.Fields("-fold on -brick-cache-bytes 7 -rollup-time-dim ds -rollup-bucket 8 -rollup-dims region,kind")
	if err := fs.Parse(retired); err != nil {
		t.Fatal(err)
	}
	if cfg = f.Config(); !reflect.DeepEqual(cfg, defaults) {
		t.Fatalf("%v: config %+v; want the defaults %+v", retired, cfg, defaults)
	}

	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	RegisterFlags(fs)
	if err := fs.Parse([]string{"-rollup-distinct", "app"}); err == nil {
		t.Fatal("-rollup-distinct parsed; it was deleted")
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	fs.VisitAll(func(fl *flag.Flag) {
		def := fl.DefValue
		if def == "" {
			def = `""`
		}
		row := "| `-" + fl.Name + "` | " + def + " |"
		if !strings.Contains(string(readme), row) {
			t.Errorf("README.md has no serving-flag row starting %q", row)
		}
	})
}
