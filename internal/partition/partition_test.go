package partition

import (
	"context"
	"errors"
	"flag"
	"os"
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
	var dims [2][][]uint32
	var mets [2][][]float64
	for i := 0; i < n; i++ {
		b := 1
		if i%40 < 5 {
			b = 0
		}
		dims[b] = append(dims[b], []uint32{uint32(i) % 40, uint32(i) % 20})
		mets[b] = append(mets[b], []float64{scale})
	}
	for b := range dims {
		if err := st.InsertBatchRows(dims[b], mets[b]); err != nil {
			t.Fatal(err)
		}
	}
}

// rollupQuery is served from a bucket-width-5 rollup (whole buckets 5..34);
// rawQuery filters on a ragged single value, so it never is.
var (
	rollupQuery = &engine.Query{
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
	p, info, _, err := s.Partial(context.Background(), name, q, o)
	if err != nil {
		t.Fatal(err)
	}
	return p, info
}

// firstAgg sums the first aggregate column over every result row.
func firstAgg(p *engine.Partial, groupCols int) float64 {
	var total float64
	for _, row := range p.Finalize().Rows {
		total += row[groupCols]
	}
	return total
}

// TestLifecycle: add → ingest → query (rollup-served and raw, repeated so
// the brick cache fills) → stop serving leaves nothing behind, however the
// partition goes; a partition re-created under the name starts from a fresh
// rollup table and never sees the old incarnation's cached brick partials.
func TestLifecycle(t *testing.T) {
	cfg := Config{
		FoldScans:       true,
		BrickCacheBytes: 1 << 20,
		RollupTimeDim:   "ds",
		RollupBucket:    5,
	}
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
			s := New(cfg)
			if err := s.Add("p", testSchema()); err != nil {
				t.Fatal(err)
			}
			if err := s.Add("p", testSchema()); !errors.Is(err, ErrExists) {
				t.Fatalf("duplicate Add = %v, want ErrExists", err)
			}
			st, _ := s.Store("p")
			ingest(t, st, 400, 1)
			if _, info := mustPartial(t, s, "p", rollupQuery, Opts{}); !info.Rollup.Hit {
				t.Fatalf("eligible query not rollup-served: %+v", info.Rollup)
			}
			for i := 0; i < 3; i++ { // second-touch admission: the third run hits
				p, info := mustPartial(t, s, "p", rawQuery, Opts{})
				if info.Rollup.Hit || !info.Rollup.Tried {
					t.Fatalf("ragged query: rollup outcome %+v, want a miss", info.Rollup)
				}
				if got := firstAgg(p, 0); got != 10 {
					t.Fatalf("raw sum = %v, want 10", got)
				}
				if i == 2 && info.CacheHits == 0 {
					t.Fatal("third identical run hit no cached brick partial; the stale-hit check below would be vacuous")
				}
			}
			old := s.RollupTable("p")
			if old == nil || old.Stats().Groups == 0 {
				t.Fatal("rollup table missing or empty before the drop")
			}

			tc.drop(s)
			if s.Len() != 0 || len(s.Stores()) != 0 {
				t.Fatalf("%d entries left", s.Len())
			}
			if s.RollupTable("p") != nil {
				t.Fatal("rollup table survives the drop")
			}
			if _, ok := s.Store("p"); ok {
				t.Fatal("store survives the drop")
			}
			if _, _, _, err := s.Partial(context.Background(), "p", rawQuery, Opts{}); !errors.Is(err, ErrNoPartition) {
				t.Fatalf("query after drop = %v, want ErrNoPartition", err)
			}
			if s.Drop("p") {
				t.Fatal("second Drop reported a partition")
			}

			// Same name, same brick ids and epochs, different data.
			if err := s.Add("p", testSchema()); err != nil {
				t.Fatal(err)
			}
			if fresh := s.RollupTable("p"); fresh == old || fresh.Stats().Groups != 0 || fresh.CoveredEpoch() != 0 {
				t.Fatalf("re-created partition inherited rollup state: %+v", fresh.Stats())
			}
			st, _ = s.Store("p")
			ingest(t, st, 400, 7)
			if p, info := mustPartial(t, s, "p", rawQuery, Opts{}); firstAgg(p, 0) != 70 || info.CacheHits != 0 {
				t.Fatalf("re-created partition: sum %v (want 70), %d cache hits (want 0)", firstAgg(p, 0), info.CacheHits)
			}
			if p, _ := mustPartial(t, s, "p", rollupQuery, Opts{}); firstAgg(p, 1) != 7*300 {
				t.Fatalf("re-created partition rollup sum = %v, want %v", firstAgg(p, 1), 7*300)
			}
		})
	}
}

// TestAdoptStagedStore: a store built off to the side and filled by an
// import (a migration receive) serves from the moment it is adopted, rollup
// included — the table folds the imported rows on its first catch-up.
func TestAdoptStagedStore(t *testing.T) {
	src, _ := brick.NewStore(testSchema())
	ingest(t, src, 400, 2)
	blob, err := src.Export()
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{RollupTimeDim: "ds", RollupBucket: 5, DecodedCacheBytes: 1 << 20, Metrics: metrics.NewRegistry()})
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
	p, info := mustPartial(t, s, "p", rollupQuery, Opts{})
	if !info.Rollup.Hit || firstAgg(p, 1) != 2*300 {
		t.Fatalf("adopted store: rollup %+v, sum %v (want 600)", info.Rollup, firstAgg(p, 1))
	}
	// Ingest after adoption reaches the table through the observer.
	ingest(t, staged, 40, 2)
	if got := s.RollupTable("p").Stats().FoldedRows; got != 440 {
		t.Fatalf("rollup folded %d rows, want 440", got)
	}
}

// TestPartialOptions: NoCache skips the rollup table, Unshared keeps the
// run out of the fold counters, and the schema without the time dimension
// gets no table at all.
func TestPartialOptions(t *testing.T) {
	s := New(Config{FoldScans: true, RollupTimeDim: "ds", RollupBucket: 5})
	if err := s.Add("p", testSchema()); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Store("p")
	ingest(t, st, 400, 1)
	if _, info := mustPartial(t, s, "p", rollupQuery, Opts{NoCache: true}); info.Rollup.Tried {
		t.Fatalf("cache-bypassed query consulted the rollup: %+v", info.Rollup)
	}
	before := s.FoldStats()
	mustPartial(t, s, "p", rawQuery, Opts{Unshared: true})
	if got := s.FoldStats(); got != before {
		t.Fatalf("unshared run moved the fold counters: %+v -> %+v", before, got)
	}
	mustPartial(t, s, "p", rawQuery, Opts{})
	if got := s.FoldStats().Solo; got != before.Solo+1 {
		t.Fatalf("shared run: solo = %d, want %d", got, before.Solo+1)
	}

	noTime := brick.Schema{
		Dimensions: []brick.Dimension{{Name: "app", Max: 20, Buckets: 4}},
		Metrics:    []brick.Metric{{Name: "value"}},
	}
	if err := s.Add("q", noTime); err != nil {
		t.Fatal(err)
	}
	if s.RollupTable("q") != nil {
		t.Fatal("schema without the time dimension got a rollup table")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
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
	tkt, err := s.Admission().Admit(context.Background(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	o := Opts{Tenant: "acme", Admitted: func(time.Duration) { calls++ }}
	if _, _, _, err := s.Partial(context.Background(), "p", rawQuery, o); !errors.Is(err, admission.ErrQueueFull) {
		t.Fatalf("with the slot held: %v, want ErrQueueFull", err)
	}
	if calls != 0 {
		t.Fatal("Admitted ran for a shed request")
	}
	tkt.Release()
	_, _, epoch, err := s.Partial(context.Background(), "p", rawQuery, o)
	if err != nil || calls != 1 {
		t.Fatalf("with the slot free: err %v, %d Admitted calls", err, calls)
	}
	if epoch != st.Epoch() || epoch == 0 {
		t.Fatalf("epoch = %d, store at %d", epoch, st.Epoch())
	}
	if s.Admission().Running() != 0 {
		t.Fatal("Partial kept its admission slot")
	}
	if New(Config{}).Admission() != nil {
		t.Fatal("MaxConcurrent 0 built an admission controller")
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

// TestFlags: the defaults describe a folding, cache-less, rollup-less,
// unthrottled worker; every serving flag parses into its Config field;
// -fold takes on/off only; and README's table lists each flag with its
// default, so the documentation cannot drift from RegisterFlags.
func TestFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := RegisterFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.FoldScans || cfg.QueueDepth != 64 || cfg.RollupBucket != 1 || cfg.MaxConcurrent != 0 ||
		cfg.BrickCacheBytes != 0 || cfg.DecodedCacheBytes != 0 || cfg.RollupTimeDim != "" || cfg.RollupDims != nil {
		t.Fatalf("default config = %+v", cfg)
	}
	if f.CompactInterval != 0 || f.Compaction != (brick.CompactionConfig{EncodeBelow: 1, EvictBelow: 0.1}) {
		t.Fatalf("default compaction = %v %+v", f.CompactInterval, f.Compaction)
	}

	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	f = RegisterFlags(fs)
	err = fs.Parse(strings.Fields("-fold off -brick-cache-bytes 7 -decoded-cache-bytes 8 -max-concurrent-queries 3 -queue-depth 2 " +
		"-rollup-time-dim ds -rollup-bucket 8 -rollup-dims region,,kind -rollup-distinct app " +
		"-compact-interval 1s -compact-encode-below 5 -compact-evict-below 1 -compact-promote-above 9"))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err = f.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.FoldScans || cfg.BrickCacheBytes != 7 || cfg.DecodedCacheBytes != 8 || cfg.MaxConcurrent != 3 || cfg.QueueDepth != 2 ||
		cfg.RollupTimeDim != "ds" || cfg.RollupBucket != 8 || strings.Join(cfg.RollupDims, "+") != "region+kind" ||
		strings.Join(cfg.RollupDistinct, "+") != "app" {
		t.Fatalf("parsed config = %+v", cfg)
	}
	if f.CompactInterval != time.Second || f.Compaction != (brick.CompactionConfig{EncodeBelow: 5, EvictBelow: 1, PromoteAbove: 9}) {
		t.Fatalf("parsed compaction = %v %+v", f.CompactInterval, f.Compaction)
	}

	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	f = RegisterFlags(fs)
	if err := fs.Parse([]string{"-fold", "maybe"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Config(); err == nil {
		t.Fatal("-fold maybe accepted")
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
