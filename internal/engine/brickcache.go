package engine

import (
	"encoding/binary"
	"hash/maphash"
	"strconv"
	"strings"
	"sync/atomic"

	"cubrick/internal/metrics"
	"cubrick/internal/scancache"
)

// BrickCache is the worker-side per-brick partial cache: it remembers the
// finished per-task accumulator snapshot of (fold key, brick) pairs, keyed
// additionally on the brick's exact ingest epoch, so a repeated dashboard
// shape skips re-scanning every brick that has not changed since the last
// run. The epoch lives inside the key — an ingest into the brick simply
// orphans the old entry (epochs are monotonic, a stale entry can never
// become valid again) and it ages out of the LRU.
//
// Admission is on second touch: a fixed-size doorkeeper of key fingerprints
// records a key's first put and stores nothing; only a key the doorkeeper
// has seen is cloned and stored. One-off queries therefore pay no clone
// and evict nothing, and a repeated shape loses exactly one fill per
// (shape, brick, epoch). The doorkeeper is direct-mapped and lossy — a
// slot overwritten between two puts delays a fill, a full fingerprint
// collision admits one early — but it only decides whether to store, never
// what a lookup returns: hits are matched on the complete key.
//
// Entries are deep-cloned on both put and get: combining a brick's slab
// hands its cells (and sketches) to the combiner, which mutates them on
// later merges, so a shared snapshot would be corrupted the second time it
// was consumed. One cache may serve several stores; CacheScope in
// SchedulerConfig keeps their keys apart.
//
// A nil *BrickCache is valid and never hits.
type BrickCache struct {
	c    *scancache.Cache
	seed maphash.Seed
	door [doorSlots]atomic.Uint32
}

// doorSlots sizes the doorkeeper (512 KiB of fingerprints): several times
// the (shape, brick) pairs a dashboard keeps live, so repeated keys rarely
// overwrite each other's first touch.
const doorSlots = 1 << 17

// NewBrickCache returns a cache bounded to maxBytes; non-positive budgets
// return nil (caching off).
func NewBrickCache(maxBytes int64) *BrickCache {
	c := scancache.New(maxBytes)
	if c == nil {
		return nil
	}
	return &BrickCache{c: c, seed: maphash.MakeSeed()}
}

// SetMetrics routes hit/miss/evict/bytes instrumentation into reg under
// the cache.brick.* names.
func (bc *BrickCache) SetMetrics(reg *metrics.Registry) {
	if bc == nil {
		return
	}
	bc.c.SetMetrics(reg, "cache.brick")
}

// Stats returns the underlying cache counters.
func (bc *BrickCache) Stats() scancache.Stats {
	if bc == nil {
		return scancache.Stats{}
	}
	return bc.c.Stats()
}

// brickCacheEntry is one cached per-task snapshot: the brick's sealed
// groups plus the row count the scan would have reported (needed so a
// cache hit keeps Partial.RowsScanned bit-identical to a cold run).
type brickCacheEntry struct {
	slab groupSlab
	rows int64
}

// get returns a private deep copy of the snapshot under the key, safe for
// the caller to merge into its combiner.
func (bc *BrickCache) get(scope, foldKey string, brickID, epoch uint64) (groupSlab, int64, bool) {
	if bc == nil {
		return groupSlab{}, 0, false
	}
	v, ok := bc.c.Get(brickCacheKey(scope, foldKey, brickID, epoch), 0)
	if !ok {
		return groupSlab{}, 0, false
	}
	e := v.(*brickCacheEntry)
	return e.slab.clone(), e.rows, true
}

// put offers a brick's sealed slab for caching under the key. The first
// offer of a key only marks the doorkeeper; a later one snapshots the slab
// (deep copy — the caller is about to combine and thereby mutate the
// original) and stores it.
func (bc *BrickCache) put(scope, foldKey string, brickID, epoch uint64, slab *groupSlab, rows int64) {
	if bc == nil {
		return
	}
	h := bc.doorHash(scope, foldKey, brickID, epoch)
	if fp := uint32(h >> 32); bc.door[h%doorSlots].Swap(fp) != fp {
		return
	}
	key := brickCacheKey(scope, foldKey, brickID, epoch)
	snap := slab.clone()
	bc.c.Put(key, &brickCacheEntry{slab: snap, rows: rows}, snap.memBytes()+int64(len(key))+64, 0)
}

// doorHash hashes the key's parts without building the key string, so a
// rejected put allocates nothing.
func (bc *BrickCache) doorHash(scope, foldKey string, brickID, epoch uint64) uint64 {
	var h maphash.Hash
	h.SetSeed(bc.seed)
	h.WriteString(scope)
	h.WriteByte(0x1f)
	h.WriteString(foldKey)
	var num [16]byte
	binary.LittleEndian.PutUint64(num[:8], brickID)
	binary.LittleEndian.PutUint64(num[8:], epoch)
	h.Write(num[:])
	return h.Sum64()
}

// brickCacheKey derives the cache key for one (store, query shape, brick,
// epoch) combination. scope isolates stores sharing one cache; the fold
// key pins semantics + filter (everything that determines what a brick
// contributes); the epoch pins the brick's exact ingest state.
func brickCacheKey(scope, foldKey string, brickID, epoch uint64) string {
	var b strings.Builder
	var num [20]byte
	b.Grow(len(scope) + len(foldKey) + 48)
	b.WriteString(scope)
	b.WriteByte(0x1f)
	b.WriteString(foldKey)
	b.WriteByte(0x1f)
	b.Write(strconv.AppendUint(num[:0], brickID, 10))
	b.WriteByte(':')
	b.Write(strconv.AppendUint(num[:0], epoch, 10))
	return b.String()
}
