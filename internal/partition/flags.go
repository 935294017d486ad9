package partition

import (
	"flag"
	"fmt"
	"strings"
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

	cfg                        Config
	fold                       string
	rollupBucket               uint
	rollupDims, rollupDistinct string
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
	fs.StringVar(&f.fold, "fold", "on", "shared-scan folding: concurrent queries with equal fold keys share one brick pass (on/off)")
	fs.Int64Var(&f.cfg.BrickCacheBytes, "brick-cache-bytes", 0, "per-worker byte budget for the per-brick partial cache (fold key + ingest epoch keyed; 0 disables)")
	fs.Int64Var(&f.cfg.DecodedCacheBytes, "decoded-cache-bytes", 0, "per-worker byte budget for the decoded-column cache pinning hot compressed bricks (0 disables)")
	fs.StringVar(&f.cfg.RollupTimeDim, "rollup-time-dim", "", "time dimension incremental rollups bucket on (empty disables rollups)")
	fs.UintVar(&f.rollupBucket, "rollup-bucket", 1, "rollup bucket width in time-dimension values")
	fs.StringVar(&f.rollupDims, "rollup-dims", "", "comma-separated dimensions rollups group by (empty = all non-time dimensions)")
	fs.StringVar(&f.rollupDistinct, "rollup-distinct", "", "comma-separated dimensions maintained as HLL sketches for COUNT(DISTINCT)")
	return f
}

// Config returns the serving configuration the flags describe.
func (f *Flags) Config() (Config, error) {
	if f.fold != "on" && f.fold != "off" {
		return Config{}, fmt.Errorf("-fold must be on or off, got %q", f.fold)
	}
	cfg := f.cfg
	cfg.FoldScans = f.fold == "on"
	cfg.RollupBucket = uint32(f.rollupBucket)
	cfg.RollupDims = splitList(f.rollupDims)
	cfg.RollupDistinct = splitList(f.rollupDistinct)
	return cfg, nil
}

// splitList parses a comma-separated flag value into its non-empty,
// space-trimmed elements.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
