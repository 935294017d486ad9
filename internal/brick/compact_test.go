package brick

import "testing"

// compactStore builds a store with one brick per region bucket and a known
// hotness per brick.
func compactStore(t *testing.T, heats []float64) *Store {
	t.Helper()
	s, err := NewStore(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := range heats {
		for r := 0; r < 50; r++ {
			s.Insert([]uint32{uint32(4 * i), 0, 0}, []float64{float64(r), 1})
		}
	}
	// Ingest touches bricks; reset and pin each brick's hotness to its
	// configured value, keyed by the region value the brick holds.
	for _, e := range s.snapshotBricks() {
		region := e.b.dims[0][0]
		e.b.Decay(0)
		e.b.Touch(heats[region/4])
	}
	return s
}

func tierCounts(s *Store) (raw, encoded, evicted int) {
	for _, e := range s.snapshotBricks() {
		switch {
		case e.b.IsEvicted():
			evicted++
		case e.b.IsCompressed():
			encoded++
		default:
			raw++
		}
	}
	return
}

// TestCompactionLadderCooling walks a cooling brick down the ladder one
// rung per pass: raw → encoded → evicted, never two rungs at once.
func TestCompactionLadderCooling(t *testing.T) {
	s := compactStore(t, []float64{1, 100}) // brick 0 cold, brick 1 hot
	cfg := CompactionConfig{EncodeBelow: 10, EvictBelow: 10}

	st, err := s.CompactOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Encoded != 1 || st.Evicted != 0 || st.Promoted != 0 {
		t.Fatalf("pass 1: %+v", st)
	}
	raw, enc, ev := tierCounts(s)
	if raw != 1 || enc != 1 || ev != 0 {
		t.Fatalf("after pass 1: raw=%d encoded=%d evicted=%d", raw, enc, ev)
	}

	st, err = s.CompactOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Evicted != 1 || st.Encoded != 0 {
		t.Fatalf("pass 2: %+v", st)
	}
	raw, enc, ev = tierCounts(s)
	if raw != 1 || enc != 0 || ev != 1 {
		t.Fatalf("after pass 2: raw=%d encoded=%d evicted=%d", raw, enc, ev)
	}

	// Steady state: nothing left to move.
	st, err = s.CompactOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st != (CompactionStats{}) {
		t.Fatalf("steady state moved bricks: %+v", st)
	}
}

// TestCompactionLadderPromotion walks a reheated brick back up, one rung
// per pass, and checks data integrity at the top.
func TestCompactionLadderPromotion(t *testing.T) {
	s := compactStore(t, []float64{1})
	cfg := CompactionConfig{EncodeBelow: 10, EvictBelow: 10}
	s.CompactOnce(cfg)
	s.CompactOnce(cfg)
	if _, _, ev := tierCounts(s); ev != 1 {
		t.Fatal("setup: brick not evicted")
	}

	for _, e := range s.snapshotBricks() {
		e.b.Touch(1000)
	}
	cfg.PromoteAbove = 100
	st, err := s.CompactOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Promoted != 1 {
		t.Fatalf("promotion pass 1: %+v", st)
	}
	if raw, enc, ev := tierCounts(s); raw != 0 || enc != 1 || ev != 0 {
		t.Fatalf("after promotion 1: raw=%d encoded=%d evicted=%d", raw, enc, ev)
	}
	st, err = s.CompactOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Promoted != 1 {
		t.Fatalf("promotion pass 2: %+v", st)
	}
	if raw, enc, ev := tierCounts(s); raw != 1 || enc != 0 || ev != 0 {
		t.Fatalf("after promotion 2: raw=%d encoded=%d evicted=%d", raw, enc, ev)
	}

	var sum float64
	var rows int
	s.Scan(nil, func(_ []uint32, m []float64) error {
		sum += m[0]
		rows++
		return nil
	})
	if rows != 50 || sum != 49*50/2 {
		t.Fatalf("data corrupted by ladder: rows=%d sum=%v", rows, sum)
	}
}

// TestCompactionZeroConfigNoop pins the zero value as fully disabled.
func TestCompactionZeroConfigNoop(t *testing.T) {
	s := compactStore(t, []float64{0, 0})
	st, err := s.CompactOnce(CompactionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if st != (CompactionStats{}) {
		t.Fatalf("zero config moved bricks: %+v", st)
	}
	if raw, _, _ := tierCounts(s); raw != 2 {
		t.Fatal("zero config changed tiers")
	}
}
