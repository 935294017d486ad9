package partition

import (
	"flag"
	"time"

	"cubrick/internal/brick"
)

// Flags are the parsed serving flags every binary that hosts a Set shares
// (cubrick-worker, cubrick-server). Read them after fs.Parse.
type Flags struct {
	// CompactInterval is the background compaction period (0 disables) and
	// Compaction the tier thresholds each pass applies.
	CompactInterval time.Duration
	Compaction      brick.CompactionConfig

	cfg Config
}

// RegisterFlags declares the serving flags on fs: the one place their
// names, defaults and meanings are written down (README's table is checked
// against it).
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.DurationVar(&f.CompactInterval, "compact-interval", 0, "background compaction pass interval (0 disables)")
	fs.Float64Var(&f.Compaction.EncodeBelow, "compact-encode-below", 1, "encode raw bricks whose hotness falls below this")
	fs.Float64Var(&f.Compaction.EvictBelow, "compact-evict-below", 0.1, "flate+evict encoded bricks whose hotness falls below this")
	fs.Float64Var(&f.Compaction.PromoteAbove, "compact-promote-above", 0, "promote colder-tier bricks whose hotness rises above this (0 disables)")
	fs.IntVar(&f.cfg.MaxConcurrent, "max-concurrent-queries", 0, "cap on concurrently executing partials per worker; excess queries queue (0 disables admission control)")
	fs.IntVar(&f.cfg.QueueDepth, "queue-depth", 64, "bound on the admission queue; arrivals beyond it are shed (HTTP 429)")
	fs.String("fold", "on", "ignored; shared-scan folding was removed")
	fs.Int64Var(new(int64), "brick-cache-bytes", 0, "ignored; the per-brick partial cache was removed")
	fs.Int64Var(&f.cfg.DecodedCacheBytes, "decoded-cache-bytes", 0, "per-worker byte budget for the decoded-column cache pinning hot compressed bricks (0 disables)")
	fs.String("rollup-time-dim", "", "ignored; incremental rollups were removed")
	fs.Uint("rollup-bucket", 1, "ignored; incremental rollups were removed")
	fs.String("rollup-dims", "", "ignored; incremental rollups were removed")
	return f
}

// Config returns the serving configuration the flags describe.
func (f *Flags) Config() Config { return f.cfg }
