package brick

import (
	"bytes"
	"compress/flate"
	"io"
	"sort"
	"sync"
)

// Third-generation storage (§IV-F3): under sustained memory pressure,
// Cubrick not only compresses but also *evicts* data to SSD. An evicted
// brick's memory footprint is zero; queries touching it pay an SSD read
// (counted as IOPS — the metric the paper's team was investigating for
// load balancing) plus decompression. The working set is the set of bricks
// hot enough that they should stay memory-resident; if a host's memory
// cannot hold the working sets of all its shards, query latency
// deteriorates — the exact failure mode §IV-F3 describes.
//
// With adaptive per-column encodings the flate outer layer applies only
// here: warm bricks stay in the lightweight encoded tier and decode at
// bit-unpack speed, while the SSD payload is flate(encoded blob) so the
// on-disk format stays compact.

// deflaterPool recycles flate's compressor state: a BestSpeed
// flate.NewWriter allocates about a megabyte of tables and windows, far more
// than the blob a brick eviction or a shard export compresses. Reset makes a
// pooled writer equivalent to a new one, so the bytes are the same.
var deflaterPool = sync.Pool{New: func() any {
	w, err := flate.NewWriter(io.Discard, flate.BestSpeed)
	if err != nil {
		panic(err) // BestSpeed is a valid level
	}
	return &deflater{w: w}
}}

// deflater is a pooled writer and the buffer it compresses into.
type deflater struct {
	w   *flate.Writer
	out bytes.Buffer
}

// maxPooledDeflateBuf bounds the output buffer a deflater keeps in the
// pool: a brick's SSD payload fits, a large shard export's blob is dropped.
const maxPooledDeflateBuf = 1 << 20

// deflate returns the BestSpeed flate stream of src in a slice of exactly
// its length: an evicted brick keeps the slice, and SSDBytes counts len.
// The writer goes back to the pool pointed at io.Discard.
func deflate(src []byte) ([]byte, error) {
	d := deflaterPool.Get().(*deflater)
	defer deflaterPool.Put(d)
	d.out.Reset()
	d.w.Reset(&d.out)
	_, err := d.w.Write(src)
	if err == nil {
		err = d.w.Close()
	}
	d.w.Reset(io.Discard)
	out := append(make([]byte, 0, d.out.Len()), d.out.Bytes()...)
	if d.out.Cap() > maxPooledDeflateBuf {
		d.out = bytes.Buffer{}
	}
	return out, err
}

// Evict moves the brick to the SSD tier: it is encoded first if needed,
// the encoded blob is flate-compressed, and the memory footprint becomes
// zero. Empty bricks are not evicted.
func (b *Brick) Evict() error {
	if err := b.Compress(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ssd != nil {
		return nil // already evicted
	}
	if b.encoded == nil {
		return nil // empty brick
	}
	ssd, err := deflate(b.encoded)
	if err != nil {
		return err
	}
	b.ssd = ssd
	b.encLen = len(b.encoded)
	b.encoded = nil
	b.obs.add("brick.evictions", 1)
	return nil
}

// Unevict returns the brick to the in-memory encoded tier by inflating the
// SSD payload. If the payload turns out to be unreadable the brick simply
// stays evicted; the corruption surfaces as an error on the next scan.
func (b *Brick) Unevict() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ssd == nil {
		return
	}
	data, _, err := b.blobLocked(nil)
	if err != nil {
		return
	}
	b.encoded = data
	b.ssd = nil
	b.encLen = 0
	b.obs.add("brick.promotions", 1)
}

// IsEvicted reports whether the brick lives on the SSD tier.
func (b *Brick) IsEvicted() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ssd != nil
}

// SSDBytes returns the brick's SSD footprint (zero unless evicted).
func (b *Brick) SSDBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return int64(len(b.ssd))
}

// SSDBytes returns the store's total SSD footprint.
func (s *Store) SSDBytes() int64 {
	var sum int64
	for _, e := range s.snapshotBricks() {
		sum += e.b.SSDBytes()
	}
	return sum
}

// SSDReads returns how many scans had to read an evicted brick from SSD —
// the IOPS signal §IV-F3 considers adding to load balancing.
func (s *Store) SSDReads() int64 { return s.ssdReads.Load() }

// EvictedBrickCount returns how many bricks live on the SSD tier.
func (s *Store) EvictedBrickCount() int {
	n := 0
	for _, e := range s.snapshotBricks() {
		if e.b.IsEvicted() {
			n++
		}
	}
	return n
}

// WorkingSetBytes returns the decompressed size of all bricks whose
// hotness is at least hotThreshold — the memory the store *wants* resident
// for good latency.
func (s *Store) WorkingSetBytes(hotThreshold float64) int64 {
	var sum int64
	for _, e := range s.snapshotBricks() {
		if e.b.Hotness() >= hotThreshold {
			sum += e.b.UncompressedBytes(s.schema)
		}
	}
	return sum
}

// EnsureTiered is the three-tier memory monitor: while the resident
// footprint exceeds memBudget it first compresses the coldest uncompressed
// bricks, then evicts the coldest compressed bricks to SSD; under surplus
// it promotes the hottest evicted bricks back to memory. It returns counts
// of (compressed, evicted, promoted) bricks.
func (s *Store) EnsureTiered(memBudget int64, lowWater float64) (compressed, evicted, promoted int, err error) {
	type heatEntry struct {
		b    *Brick
		heat float64
	}
	var raw, inMem, onSSD []heatEntry
	for _, e := range s.snapshotBricks() {
		he := heatEntry{e.b, e.b.Hotness()}
		switch {
		case e.b.IsEvicted():
			onSSD = append(onSSD, he)
		case e.b.IsCompressed():
			inMem = append(inMem, he)
		default:
			raw = append(raw, he)
		}
	}
	sort.Slice(raw, func(i, j int) bool { return raw[i].heat < raw[j].heat })
	sort.Slice(inMem, func(i, j int) bool { return inMem[i].heat < inMem[j].heat })
	sort.Slice(onSSD, func(i, j int) bool { return onSSD[i].heat > onSSD[j].heat })

	mem := s.MemoryBytes()
	// Tier 1: compress coldest raw bricks.
	for _, he := range raw {
		if mem <= memBudget {
			break
		}
		before := he.b.MemoryBytes(s.schema)
		if err := he.b.Compress(); err != nil {
			return compressed, evicted, promoted, err
		}
		mem += he.b.MemoryBytes(s.schema) - before
		compressed++
	}
	// Tier 2: evict coldest compressed bricks to SSD. Bricks compressed
	// in tier 1 are candidates too, so merge both cold lists by heat.
	candidates := append(append([]heatEntry(nil), inMem...), raw...)
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].heat < candidates[j].heat })
	for _, he := range candidates {
		if mem <= memBudget {
			break
		}
		if he.b.IsEvicted() || !he.b.IsCompressed() {
			continue
		}
		before := he.b.MemoryBytes(s.schema)
		if err := he.b.Evict(); err != nil {
			return compressed, evicted, promoted, err
		}
		mem -= before
		evicted++
	}
	if compressed > 0 || evicted > 0 {
		return compressed, evicted, promoted, nil
	}
	// Surplus: promote hottest evicted bricks back into memory.
	low := int64(lowWater * float64(memBudget))
	for _, he := range onSSD {
		grow := he.b.compressedLen()
		if mem+grow > low {
			continue
		}
		he.b.Unevict()
		mem += grow
		promoted++
	}
	return compressed, evicted, promoted, nil
}

// compressedLen returns the in-memory size the brick occupies (or would
// occupy, if evicted) when resident in the encoded tier.
func (b *Brick) compressedLen() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ssd != nil {
		return int64(b.encLen)
	}
	return int64(len(b.encoded))
}
