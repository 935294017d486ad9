package brick

// Background compaction (§IV-F2): instead of the all-or-nothing Compress
// sweep, a compaction pass walks the hotness snapshot and moves each brick
// one rung along the tier ladder as it cools or reheats:
//
//	raw  ──cool──▶  encoded  ──cool──▶  evicted (flate + SSD)
//	raw  ◀──hot──   encoded  ◀──hot──   evicted
//
// Moves are one rung per pass in both directions, so a brick's tier tracks
// its temperature gradually rather than thrashing end to end.

// CompactionConfig holds the hotness thresholds of the tier ladder. The
// zero value disables every transition.
type CompactionConfig struct {
	// EncodeBelow: a raw brick colder than this is encoded.
	EncodeBelow float64
	// EvictBelow: an encoded brick colder than this is evicted to SSD.
	EvictBelow float64
	// PromoteAbove: a compressed brick hotter than this climbs one rung
	// (evicted→encoded, encoded→raw). Zero disables promotion. Keep it
	// above EncodeBelow or bricks near the boundary will flap.
	PromoteAbove float64
}

// CompactionStats counts the tier transitions one pass performed.
type CompactionStats struct {
	Encoded  int
	Evicted  int
	Promoted int
}

// Add accumulates another pass's counts.
func (c *CompactionStats) Add(o CompactionStats) {
	c.Encoded += o.Encoded
	c.Evicted += o.Evicted
	c.Promoted += o.Promoted
}

// CompactOnce runs one compaction pass over the store. Promotion is
// checked first so a brick that reheated since the last pass climbs before
// the cooling rules see it.
func (s *Store) CompactOnce(cfg CompactionConfig) (CompactionStats, error) {
	var st CompactionStats
	for _, e := range s.snapshotBricks() {
		b := e.b
		h := b.Hotness()
		switch {
		case cfg.PromoteAbove > 0 && h > cfg.PromoteAbove && b.IsEvicted():
			b.Unevict()
			st.Promoted++
		case cfg.PromoteAbove > 0 && h > cfg.PromoteAbove && b.IsCompressed():
			if err := b.Decompress(); err != nil {
				return st, err
			}
			st.Promoted++
		case h < cfg.EvictBelow && b.IsCompressed() && !b.IsEvicted():
			if err := b.Evict(); err != nil {
				return st, err
			}
			st.Evicted++
		case h < cfg.EncodeBelow && !b.IsCompressed():
			if err := b.Compress(); err != nil {
				return st, err
			}
			st.Encoded++
		}
	}
	s.obs.add("brick.compact.encoded", int64(st.Encoded))
	s.obs.add("brick.compact.evicted", int64(st.Evicted))
	s.obs.add("brick.compact.promoted", int64(st.Promoted))
	return st, nil
}
