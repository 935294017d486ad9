package brick

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cubrick/internal/metrics"
)

// Adaptive per-column brick encodings (§IV-F2). A compressed brick holds a
// self-describing columnar blob in which every column independently picked
// the cheapest of a menu of lightweight encodings based on its observed
// statistics. Unlike the original monolithic flate blob, the blob decodes
// at bit-unpack speed, supports skipping columns a query does not
// reference, and exposes run/dictionary structure to the execution engine
// so GROUP BY kernels can aggregate without materializing the column.
//
// Blob layout (version 2, the only one decoded):
//
//	0x00 0x02                      version header
//	uvarint rows
//	nDims × dimension column:      1 enc byte, then payload
//	nMetrics × metric column:      1 enc byte, then payload
//
// Dimension encodings:
//
//	raw   (0): rows × uint32 LE (implied length)
//	dict  (1): uvarint payloadLen; uvarint k, sorted distinct values as
//	           first-absolute-then-delta uvarints, 1 code-width byte,
//	           LSB-first bit-packed codes
//	rle   (2): uvarint payloadLen; uvarint runCount, runCount ×
//	           (uvarint value, uvarint runLength ≥ 1); run lengths must
//	           sum to rows
//	for   (3): uvarint base, 1 width byte (0–32), LSB-first bit-packed
//	           (value − base) (implied length)
//	delta (4): uvarint payloadLen; rows × zigzag varint of the difference
//	           from the previous value (first value differenced from 0)
//
// Metric encodings:
//
//	raw   (0): rows × float64 bits LE (implied length)
//	xor   (1): uvarint payloadLen; per value one control byte
//	           (leadingZeroBytes<<4 | trailingZeroBytes of bits XOR
//	           previous bits) followed by the 8−lz−tz significant bytes
//	           LE — the byte-aligned variant of Gorilla's XOR scheme
//	const (2): 8 bytes LE of the single bit pattern every row shares
//	dict  (3): uvarint payloadLen; uvarint k, k × 8-byte bit patterns LE
//	           in first-appearance order, 1 code-width byte, LSB-first
//	           bit-packed codes — low-cardinality metric columns
//
// A payload that does not begin with the two version bytes is rejected:
// the flate-of-varints format they replaced is no longer readable.

const (
	blobVersionByte0 = 0x00
	blobVersionByte1 = 0x02

	dimEncRaw   = 0
	dimEncDict  = 1
	dimEncRLE   = 2
	dimEncFOR   = 3
	dimEncDelta = 4

	metEncRaw   = 0
	metEncXOR   = 1
	metEncConst = 2
	metEncDict  = 3

	// dictMaxCard caps the dictionary size the chooser considers; beyond it
	// the stats pass stops tracking distincts and dictionary encoding is
	// ruled out.
	dictMaxCard = 4096

	// maxDecodeRows bounds the row count accepted from an untrusted blob
	// (import, fuzz) so a forged header cannot drive allocations; trusted
	// in-store decodes pass the brick's authoritative row count instead.
	maxDecodeRows = 1 << 24
)

// ColRequest says what a scan wants from one dimension column.
type ColRequest uint8

const (
	// ColSkip: the column is not referenced; do not decode it.
	ColSkip ColRequest = iota
	// ColNeed: materialize the column values.
	ColNeed
	// ColGroupEncoded: the caller can consume the column's run or
	// dictionary structure directly; materialize only when the encoding
	// has no such structure (raw/delta/wide FOR).
	ColGroupEncoded
)

// Projection is the set of columns a scan references. A nil *Projection
// materializes everything (the pre-projection behavior).
type Projection struct {
	Dims    []ColRequest
	Metrics []bool
	// NoCache bypasses the decoded-column cache for this scan: neither
	// serving from it nor filling it. Set for cache-bypassed queries.
	NoCache bool
}

func (p *Projection) dim(i int) ColRequest {
	if p == nil || i >= len(p.Dims) {
		return ColNeed
	}
	return p.Dims[i]
}

func (p *Projection) metric(i int) bool {
	if p == nil || i >= len(p.Metrics) {
		return true
	}
	return p.Metrics[i]
}

// Run is one run of a run-length-encoded dimension column.
type Run struct {
	Value  uint32
	Length int32
}

// Batch is one brick's worth of decoded scan input. Slices are views valid
// only for the duration of the visit callback. A skipped column's entry is
// nil. For a ColGroupEncoded dimension, exactly one of three shapes is set:
// Dims[i] (materialized), DimRuns[i] (run view), or DimCodes[i]+DimDict[i]
// (dictionary view: Dims values are DimDict[i][DimCodes[i][r]]).
type Batch struct {
	Dims     [][]uint32
	Metrics  [][]float64
	Rows     int
	DimRuns  [][]Run
	DimCodes [][]uint32
	DimDict  [][]uint32
}

// Runs returns dimension i's run view, or nil when the column was not
// delivered as runs (raw bricks leave DimRuns nil entirely).
func (b *Batch) Runs(i int) []Run {
	if i < len(b.DimRuns) {
		return b.DimRuns[i]
	}
	return nil
}

// Codes returns dimension i's dictionary view (codes, dict), or nils when
// the column was not delivered dictionary-encoded.
func (b *Batch) Codes(i int) (codes, dict []uint32) {
	if i < len(b.DimCodes) {
		return b.DimCodes[i], b.DimDict[i]
	}
	return nil, nil
}

// storeObs fans brick-level encode/decode events into the store's metrics
// registry; all methods are safe on a nil receiver or nil registry, so
// bricks carry the pointer unconditionally.
type storeObs struct {
	reg atomic.Pointer[metrics.Registry]
}

func (o *storeObs) add(name string, delta int64) {
	if o == nil {
		return
	}
	if r := o.reg.Load(); r != nil {
		r.Counter(name).Add(delta)
	}
}

func (o *storeObs) observeDecode(d time.Duration) {
	if o == nil {
		return
	}
	if r := o.reg.Load(); r != nil {
		r.Histogram("brick.decode.latency").Observe(d.Seconds())
	}
}

var dimEncCounterName = [...]string{
	dimEncRaw:   "brick.encode.raw",
	dimEncDict:  "brick.encode.dict",
	dimEncRLE:   "brick.encode.rle",
	dimEncFOR:   "brick.encode.for",
	dimEncDelta: "brick.encode.delta",
}

// ---------------------------------------------------------------------------
// Varint / bit-packing helpers

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func zigzag(d int64) uint64   { return uint64((d << 1) ^ (d >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// bitsFor returns the number of bits needed to represent v (0 for v == 0).
func bitsFor(v uint32) int { return 32 - bits.LeadingZeros32(v) }

func packedLen(n, width int) int { return (n*width + 7) / 8 }

// appendPacked bit-packs vals at the given width, LSB first.
func appendPacked(dst []byte, vals []uint32, width int) []byte {
	var acc uint64
	nbits := 0
	for _, v := range vals {
		acc |= uint64(v) << nbits
		nbits += width
		for nbits >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			nbits -= 8
		}
	}
	if nbits > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// unpackBits reads len(out) width-bit values from data (whose length the
// caller has already verified to be exactly packedLen(len(out), width)).
func unpackBits(data []byte, width int, out []uint32) {
	var acc uint64
	nbits := 0
	pos := 0
	mask := uint64(1)<<width - 1
	for i := range out {
		for nbits < width {
			acc |= uint64(data[pos]) << nbits
			pos++
			nbits += 8
		}
		out[i] = uint32(acc & mask)
		acc >>= width
		nbits -= width
	}
}

// ---------------------------------------------------------------------------
// Encoding: stats pass + chooser + per-column writers

// dimStats is one pass of per-column statistics driving the chooser.
type dimStats struct {
	mn, mx     uint32
	rleBytes   int // exact payload cost of the RLE run list
	runCount   int
	deltaBytes int      // exact payload cost of zigzag deltas
	dict       []uint32 // sorted distinct values, nil if > dictMaxCard
}

func analyzeDim(col []uint32) dimStats {
	st := dimStats{mn: col[0], mx: col[0]}
	distinct := make(map[uint32]struct{}, 16)
	distinct[col[0]] = struct{}{}
	prevDelta := int64(0)
	prev := col[0]
	runLen := 0
	closeRun := func(v uint32, n int) {
		st.runCount++
		st.rleBytes += uvarintLen(uint64(v)) + uvarintLen(uint64(n))
	}
	for _, v := range col {
		if v < st.mn {
			st.mn = v
		}
		if v > st.mx {
			st.mx = v
		}
		st.deltaBytes += uvarintLen(zigzag(int64(v) - prevDelta))
		prevDelta = int64(v)
		if runLen > 0 && v == prev {
			runLen++
		} else {
			if runLen > 0 {
				closeRun(prev, runLen)
			}
			prev, runLen = v, 1
		}
		if distinct != nil {
			if _, ok := distinct[v]; !ok {
				if len(distinct) >= dictMaxCard {
					distinct = nil
				} else {
					distinct[v] = struct{}{}
				}
			}
		}
	}
	closeRun(prev, runLen)
	if distinct != nil {
		st.dict = make([]uint32, 0, len(distinct))
		for v := range distinct {
			st.dict = append(st.dict, v)
		}
		sort.Slice(st.dict, func(i, j int) bool { return st.dict[i] < st.dict[j] })
	}
	return st
}

func dimColumnCosts(col []uint32, st dimStats) (costs [5]int) {
	n := len(col)
	costs[dimEncRaw] = 1 + 4*n
	forWidth := bitsFor(st.mx - st.mn)
	costs[dimEncFOR] = 1 + uvarintLen(uint64(st.mn)) + 1 + packedLen(n, forWidth)
	rlePayload := uvarintLen(uint64(st.runCount)) + st.rleBytes
	costs[dimEncRLE] = 1 + uvarintLen(uint64(rlePayload)) + rlePayload
	costs[dimEncDelta] = 1 + uvarintLen(uint64(st.deltaBytes)) + st.deltaBytes
	if st.dict != nil && len(st.dict) > 0 {
		k := len(st.dict)
		dictBytes := uvarintLen(uint64(st.dict[0]))
		for i := 1; i < k; i++ {
			dictBytes += uvarintLen(uint64(st.dict[i] - st.dict[i-1]))
		}
		cw := bitsFor(uint32(k - 1))
		payload := uvarintLen(uint64(k)) + dictBytes + 1 + packedLen(n, cw)
		costs[dimEncDict] = 1 + uvarintLen(uint64(payload)) + payload
	} else {
		costs[dimEncDict] = -1 // ineligible
	}
	return costs
}

// chooseDimEnc picks the cheapest eligible encoding; ties prefer the
// encodings the execution engine can consume structurally (RLE runs, then
// constant-detecting FOR, then dictionary codes) over opaque ones.
func chooseDimEnc(costs [5]int) byte {
	order := [5]byte{dimEncRLE, dimEncFOR, dimEncDict, dimEncRaw, dimEncDelta}
	best := byte(dimEncRaw)
	bestCost := costs[dimEncRaw]
	for _, e := range order {
		if c := costs[e]; c >= 0 && c < bestCost {
			best, bestCost = e, c
		}
	}
	// Walking the preference order with a strict < means the first encoding
	// achieving the minimum wins ties toward structure.
	for _, e := range order {
		if costs[e] == bestCost {
			return e
		}
	}
	return best
}

func appendDimColumn(dst []byte, col []uint32, obs *storeObs) []byte {
	if len(col) == 0 {
		return append(dst, dimEncRaw)
	}
	st := analyzeDim(col)
	costs := dimColumnCosts(col, st)
	enc := chooseDimEnc(costs)
	obs.add(dimEncCounterName[enc], 1)
	dst = append(dst, enc)
	switch enc {
	case dimEncRaw:
		for _, v := range col {
			dst = binary.LittleEndian.AppendUint32(dst, v)
		}
	case dimEncFOR:
		width := bitsFor(st.mx - st.mn)
		dst = appendUvarint(dst, uint64(st.mn))
		dst = append(dst, byte(width))
		var acc uint64
		nbits := 0
		for _, v := range col {
			acc |= uint64(v-st.mn) << nbits
			nbits += width
			for nbits >= 8 {
				dst = append(dst, byte(acc))
				acc >>= 8
				nbits -= 8
			}
		}
		if nbits > 0 {
			dst = append(dst, byte(acc))
		}
	case dimEncRLE:
		payload := uvarintLen(uint64(st.runCount)) + st.rleBytes
		dst = appendUvarint(dst, uint64(payload))
		dst = appendUvarint(dst, uint64(st.runCount))
		prev := col[0]
		runLen := 1
		for _, v := range col[1:] {
			if v == prev {
				runLen++
				continue
			}
			dst = appendUvarint(dst, uint64(prev))
			dst = appendUvarint(dst, uint64(runLen))
			prev, runLen = v, 1
		}
		dst = appendUvarint(dst, uint64(prev))
		dst = appendUvarint(dst, uint64(runLen))
	case dimEncDelta:
		dst = appendUvarint(dst, uint64(st.deltaBytes))
		prev := int64(0)
		for _, v := range col {
			dst = appendUvarint(dst, zigzag(int64(v)-prev))
			prev = int64(v)
		}
	case dimEncDict:
		k := len(st.dict)
		dictBytes := uvarintLen(uint64(st.dict[0]))
		for i := 1; i < k; i++ {
			dictBytes += uvarintLen(uint64(st.dict[i] - st.dict[i-1]))
		}
		cw := bitsFor(uint32(k - 1))
		payload := uvarintLen(uint64(k)) + dictBytes + 1 + packedLen(len(col), cw)
		dst = appendUvarint(dst, uint64(payload))
		dst = appendUvarint(dst, uint64(k))
		dst = appendUvarint(dst, uint64(st.dict[0]))
		for i := 1; i < k; i++ {
			dst = appendUvarint(dst, uint64(st.dict[i]-st.dict[i-1]))
		}
		dst = append(dst, byte(cw))
		codeOf := make(map[uint32]uint32, k)
		for i, v := range st.dict {
			codeOf[v] = uint32(i)
		}
		var acc uint64
		nbits := 0
		for _, v := range col {
			acc |= uint64(codeOf[v]) << nbits
			nbits += cw
			for nbits >= 8 {
				dst = append(dst, byte(acc))
				acc >>= 8
				nbits -= 8
			}
		}
		if nbits > 0 {
			dst = append(dst, byte(acc))
		}
	}
	return dst
}

func xorControl(x uint64) (lz, tz, s int) {
	if x == 0 {
		return 8, 0, 0
	}
	lz = bits.LeadingZeros64(x) / 8
	tz = bits.TrailingZeros64(x) / 8
	return lz, tz, 8 - lz - tz
}

func xorMetricBytes(col []float64) int {
	prev := uint64(0)
	n := 0
	for _, v := range col {
		b := floatBits(v)
		_, _, s := xorControl(b ^ prev)
		n += 1 + s
		prev = b
	}
	return n
}

func appendMetricColumn(dst []byte, col []float64, obs *storeObs) []byte {
	if len(col) == 0 {
		return append(dst, metEncRaw)
	}
	first := floatBits(col[0])
	constant := true
	for _, v := range col[1:] {
		if floatBits(v) != first {
			constant = false
			break
		}
	}
	// Distinct bit patterns in first-appearance order, for the dictionary.
	codeOf := make(map[uint64]uint32, 16)
	var patterns []uint64
	for _, v := range col {
		b := floatBits(v)
		if _, ok := codeOf[b]; !ok {
			if len(patterns) >= dictMaxCard {
				patterns = nil
				break
			}
			codeOf[b] = uint32(len(patterns))
			patterns = append(patterns, b)
		}
	}
	xorSize := xorMetricBytes(col)
	rawCost := 1 + 8*len(col)
	xorCost := 1 + uvarintLen(uint64(xorSize)) + xorSize
	constCost := rawCost + 1 // ineligible unless constant
	if constant {
		constCost = 1 + 8
	}
	dictCost := rawCost + 1 // ineligible past the cardinality cap
	if patterns != nil {
		k := len(patterns)
		payload := uvarintLen(uint64(k)) + 8*k + 1 + packedLen(len(col), bitsFor(uint32(k-1)))
		dictCost = 1 + uvarintLen(uint64(payload)) + payload
	}
	if constCost <= xorCost && constCost <= rawCost && constCost <= dictCost {
		obs.add("brick.encode.metric.const", 1)
		dst = append(dst, metEncConst)
		return binary.LittleEndian.AppendUint64(dst, first)
	}
	if dictCost <= xorCost && dictCost < rawCost {
		obs.add("brick.encode.metric.dict", 1)
		k := len(patterns)
		cw := bitsFor(uint32(k - 1))
		payload := uvarintLen(uint64(k)) + 8*k + 1 + packedLen(len(col), cw)
		dst = append(dst, metEncDict)
		dst = appendUvarint(dst, uint64(payload))
		dst = appendUvarint(dst, uint64(k))
		for _, p := range patterns {
			dst = binary.LittleEndian.AppendUint64(dst, p)
		}
		dst = append(dst, byte(cw))
		var acc uint64
		nbits := 0
		for _, v := range col {
			acc |= uint64(codeOf[floatBits(v)]) << nbits
			nbits += cw
			for nbits >= 8 {
				dst = append(dst, byte(acc))
				acc >>= 8
				nbits -= 8
			}
		}
		if nbits > 0 {
			dst = append(dst, byte(acc))
		}
		return dst
	}
	if xorCost >= rawCost {
		obs.add("brick.encode.metric.raw", 1)
		dst = append(dst, metEncRaw)
		for _, v := range col {
			dst = binary.LittleEndian.AppendUint64(dst, floatBits(v))
		}
		return dst
	}
	obs.add("brick.encode.metric.xor", 1)
	dst = append(dst, metEncXOR)
	dst = appendUvarint(dst, uint64(xorSize))
	prev := uint64(0)
	for _, v := range col {
		b := floatBits(v)
		x := b ^ prev
		lz, tz, s := xorControl(x)
		dst = append(dst, byte(lz<<4|tz))
		x >>= 8 * tz
		for i := 0; i < s; i++ {
			dst = append(dst, byte(x))
			x >>= 8
		}
		prev = b
	}
	return dst
}

// encodeBrickBlob serializes the columns as a version-2 adaptive blob.
func encodeBrickBlob(dims [][]uint32, mets [][]float64, rows int, obs *storeObs) []byte {
	dst := make([]byte, 0, 16+2*rows*(len(dims)+len(mets)))
	dst = append(dst, blobVersionByte0, blobVersionByte1)
	dst = appendUvarint(dst, uint64(rows))
	for _, col := range dims {
		dst = appendDimColumn(dst, col, obs)
	}
	for _, col := range mets {
		dst = appendMetricColumn(dst, col, obs)
	}
	return dst
}

// errUnknownBlobVersion rejects a payload without the version bytes.
var errUnknownBlobVersion = errors.New("brick: unknown blob version")

// isV2Blob reports whether data carries the adaptive blob's version bytes.
func isV2Blob(data []byte) bool {
	return len(data) >= 2 && data[0] == blobVersionByte0 && data[1] == blobVersionByte1
}

// ---------------------------------------------------------------------------
// Decoding

type colReader struct {
	data []byte
	pos  int
}

func (r *colReader) remaining() int { return len(r.data) - r.pos }

func (r *colReader) readByte() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, fmt.Errorf("brick: truncated blob at offset %d", r.pos)
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

func (r *colReader) readUvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("brick: corrupt varint at offset %d", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *colReader) take(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, fmt.Errorf("brick: truncated blob: need %d bytes at offset %d, have %d", n, r.pos, r.remaining())
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

func (r *colReader) skip(n int) error {
	_, err := r.take(n)
	return err
}

func decodeDimRaw(payload []byte, rows int, out []uint32) error {
	if len(payload) != 4*rows {
		return fmt.Errorf("brick: raw dim column has %d bytes, want %d", len(payload), 4*rows)
	}
	for i := 0; i < rows; i++ {
		out[i] = binary.LittleEndian.Uint32(payload[4*i:])
	}
	return nil
}

// decodeDimFOR materializes a frame-of-reference payload (the packed bits
// after base/width, whose length the caller verified).
func decodeDimFOR(packed []byte, base uint32, width, rows int, out []uint32) error {
	if width == 0 {
		for i := 0; i < rows; i++ {
			out[i] = base
		}
		return nil
	}
	unpackBits(packed, width, out)
	for i := 0; i < rows; i++ {
		v := uint64(base) + uint64(out[i])
		if v > 0xFFFFFFFF {
			return fmt.Errorf("brick: FOR value overflows uint32")
		}
		out[i] = uint32(v)
	}
	return nil
}

// decodeDimRLE parses the run list into runs (appended to runs[:0]),
// validating that lengths are ≥ 1 and sum exactly to rows.
func decodeDimRLE(payload []byte, rows int, runs []Run) ([]Run, error) {
	r := colReader{data: payload}
	rc, err := r.readUvarint()
	if err != nil {
		return nil, err
	}
	// Each run costs ≥ 2 payload bytes, so runCount is bounded by the data.
	if rc > uint64(len(payload)) || rc > uint64(rows) {
		return nil, fmt.Errorf("brick: RLE run count %d implausible for %d rows, %d bytes", rc, rows, len(payload))
	}
	runs = runs[:0]
	total := 0
	for i := uint64(0); i < rc; i++ {
		v, err := r.readUvarint()
		if err != nil {
			return nil, err
		}
		if v > 0xFFFFFFFF {
			return nil, fmt.Errorf("brick: RLE value %d overflows uint32", v)
		}
		n, err := r.readUvarint()
		if err != nil {
			return nil, err
		}
		if n == 0 || n > uint64(rows-total) {
			return nil, fmt.Errorf("brick: RLE run length %d invalid at row %d of %d", n, total, rows)
		}
		runs = append(runs, Run{Value: uint32(v), Length: int32(n)})
		total += int(n)
	}
	if total != rows {
		return nil, fmt.Errorf("brick: RLE runs cover %d rows, want %d", total, rows)
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("brick: RLE column has %d trailing bytes", r.remaining())
	}
	return runs, nil
}

func expandRuns(runs []Run, out []uint32) {
	i := 0
	for _, run := range runs {
		for j := int32(0); j < run.Length; j++ {
			out[i] = run.Value
			i++
		}
	}
}

func expandCodes(codes, dict, out []uint32) {
	for i, c := range codes {
		out[i] = dict[c]
	}
}

func decodeDimDelta(payload []byte, rows int, out []uint32) error {
	// Every zigzag varint is ≥ 1 byte, so rows > len(payload) is corrupt.
	if rows > len(payload) {
		return fmt.Errorf("brick: delta column has %d bytes for %d rows", len(payload), rows)
	}
	r := colReader{data: payload}
	prev := int64(0)
	for i := 0; i < rows; i++ {
		u, err := r.readUvarint()
		if err != nil {
			return err
		}
		v := prev + unzigzag(u)
		if v < 0 || v > 0xFFFFFFFF {
			return fmt.Errorf("brick: delta value %d out of uint32 range at row %d", v, i)
		}
		out[i] = uint32(v)
		prev = v
	}
	if r.remaining() != 0 {
		return fmt.Errorf("brick: delta column has %d trailing bytes", r.remaining())
	}
	return nil
}

// decodeDimDict parses a dictionary payload into (dict, codes). codes is
// appended to codes[:0] and every code is validated against the dictionary.
func decodeDimDict(payload []byte, rows int, codes []uint32) (dict []uint32, outCodes []uint32, err error) {
	r := colReader{data: payload}
	k, err := r.readUvarint()
	if err != nil {
		return nil, nil, err
	}
	if k == 0 || k > dictMaxCard || k > uint64(rows) {
		return nil, nil, fmt.Errorf("brick: dictionary size %d invalid for %d rows", k, rows)
	}
	dict = make([]uint32, k)
	first, err := r.readUvarint()
	if err != nil {
		return nil, nil, err
	}
	if first > 0xFFFFFFFF {
		return nil, nil, fmt.Errorf("brick: dictionary value overflows uint32")
	}
	dict[0] = uint32(first)
	for i := 1; i < int(k); i++ {
		d, err := r.readUvarint()
		if err != nil {
			return nil, nil, err
		}
		v := uint64(dict[i-1]) + d
		if d == 0 || v > 0xFFFFFFFF {
			return nil, nil, fmt.Errorf("brick: dictionary not strictly increasing at entry %d", i)
		}
		dict[i] = uint32(v)
	}
	cwb, err := r.readByte()
	if err != nil {
		return nil, nil, err
	}
	cw := int(cwb)
	if cw > 32 {
		return nil, nil, fmt.Errorf("brick: dictionary code width %d", cw)
	}
	packed, err := r.take(packedLen(rows, cw))
	if err != nil {
		return nil, nil, err
	}
	if r.remaining() != 0 {
		return nil, nil, fmt.Errorf("brick: dict column has %d trailing bytes", r.remaining())
	}
	codes = codes[:0]
	if cap(codes) < rows {
		codes = make([]uint32, rows)
	} else {
		codes = codes[:rows]
	}
	if cw == 0 {
		for i := range codes {
			codes[i] = 0
		}
	} else {
		unpackBits(packed, cw, codes)
	}
	for i, c := range codes {
		if uint64(c) >= k {
			return nil, nil, fmt.Errorf("brick: dictionary code %d out of range at row %d", c, i)
		}
	}
	return dict, codes, nil
}

func decodeMetricRaw(payload []byte, rows int, out []float64) error {
	if len(payload) != 8*rows {
		return fmt.Errorf("brick: raw metric column has %d bytes, want %d", len(payload), 8*rows)
	}
	for i := 0; i < rows; i++ {
		out[i] = floatFromBits(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return nil
}

func decodeMetricXOR(payload []byte, rows int, out []float64) error {
	// Every value costs ≥ 1 control byte.
	if rows > len(payload) {
		return fmt.Errorf("brick: xor metric column has %d bytes for %d rows", len(payload), rows)
	}
	r := colReader{data: payload}
	prev := uint64(0)
	for i := 0; i < rows; i++ {
		ctrl, err := r.readByte()
		if err != nil {
			return err
		}
		lz, tz := int(ctrl>>4), int(ctrl&0x0F)
		if lz > 8 || tz > 8 || lz+tz > 8 {
			return fmt.Errorf("brick: xor control byte %#x invalid at row %d", ctrl, i)
		}
		s := 8 - lz - tz
		if lz == 8 {
			s = 0
		}
		sig, err := r.take(s)
		if err != nil {
			return err
		}
		var x uint64
		for j := s - 1; j >= 0; j-- {
			x = x<<8 | uint64(sig[j])
		}
		x <<= 8 * tz
		prev ^= x
		out[i] = floatFromBits(prev)
	}
	if r.remaining() != 0 {
		return fmt.Errorf("brick: xor metric column has %d trailing bytes", r.remaining())
	}
	return nil
}

func decodeMetricDict(payload []byte, rows int, out []float64) error {
	r := colReader{data: payload}
	k64, err := r.readUvarint()
	if err != nil {
		return err
	}
	if k64 == 0 || k64 > uint64(dictMaxCard) || k64 > uint64(rows) {
		return fmt.Errorf("brick: metric dictionary has %d entries for %d rows", k64, rows)
	}
	k := int(k64)
	dictBytes, err := r.take(8 * k)
	if err != nil {
		return err
	}
	cwb, err := r.readByte()
	if err != nil {
		return err
	}
	cw := int(cwb)
	if cw > 32 {
		return fmt.Errorf("brick: metric dictionary code width %d", cw)
	}
	packed, err := r.take(packedLen(rows, cw))
	if err != nil {
		return err
	}
	if r.remaining() != 0 {
		return fmt.Errorf("brick: dict metric column has %d trailing bytes", r.remaining())
	}
	dict := make([]float64, k)
	for i := range dict {
		dict[i] = floatFromBits(binary.LittleEndian.Uint64(dictBytes[8*i:]))
	}
	if cw == 0 {
		for i := 0; i < rows; i++ {
			out[i] = dict[0]
		}
		return nil
	}
	var acc uint64
	nbits, pos := 0, 0
	mask := uint64(1)<<cw - 1
	for i := 0; i < rows; i++ {
		for nbits < cw {
			acc |= uint64(packed[pos]) << nbits
			pos++
			nbits += 8
		}
		c := acc & mask
		acc >>= cw
		nbits -= cw
		if c >= k64 {
			return fmt.Errorf("brick: metric dictionary code %d out of range at row %d", c, i)
		}
		out[i] = dict[c]
	}
	return nil
}

// ---------------------------------------------------------------------------
// Whole-blob decode (projection-aware, scratch-pooled)

// visitScratch is the pooled per-visit decode workspace: column buffers,
// run/code/dict views, the flate output buffer for SSD reads, and the Batch
// handed to the callback. Reused across scans via visitPool so steady-state
// scanning allocates nothing.
type visitScratch struct {
	dimBufs  [][]uint32
	metBufs  [][]float64
	runBufs  [][]Run
	codeBufs [][]uint32
	inflate  []byte
	batch    Batch
	// miss is the decoded cache's "columns still to decode" projection.
	miss Projection
}

var visitPool = sync.Pool{New: func() any { return &visitScratch{} }}

func (sc *visitScratch) prepare(nDims, nMetrics int) *Batch {
	if len(sc.dimBufs) < nDims {
		sc.dimBufs = append(sc.dimBufs, make([][]uint32, nDims-len(sc.dimBufs))...)
		sc.runBufs = append(sc.runBufs, make([][]Run, nDims-len(sc.runBufs))...)
		sc.codeBufs = append(sc.codeBufs, make([][]uint32, nDims-len(sc.codeBufs))...)
	}
	if len(sc.metBufs) < nMetrics {
		sc.metBufs = append(sc.metBufs, make([][]float64, nMetrics-len(sc.metBufs))...)
	}
	b := &sc.batch
	b.Dims = resizeNil(b.Dims, nDims)
	b.DimRuns = resizeNilRuns(b.DimRuns, nDims)
	b.DimCodes = resizeNil(b.DimCodes, nDims)
	b.DimDict = resizeNil(b.DimDict, nDims)
	b.Metrics = resizeNilF(b.Metrics, nMetrics)
	b.Rows = 0
	return b
}

func resizeNil(s [][]uint32, n int) [][]uint32 {
	if cap(s) < n {
		s = make([][]uint32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = nil
	}
	return s
}

func resizeNilF(s [][]float64, n int) [][]float64 {
	if cap(s) < n {
		s = make([][]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = nil
	}
	return s
}

func resizeNilRuns(s [][]Run, n int) [][]Run {
	if cap(s) < n {
		s = make([][]Run, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = nil
	}
	return s
}

func (sc *visitScratch) dimBuf(i, rows int) []uint32 {
	b := sc.dimBufs[i]
	if cap(b) < rows {
		b = make([]uint32, rows)
	} else {
		b = b[:rows]
	}
	sc.dimBufs[i] = b
	return b
}

func (sc *visitScratch) metBuf(i, rows int) []float64 {
	b := sc.metBufs[i]
	if cap(b) < rows {
		b = make([]float64, rows)
	} else {
		b = b[:rows]
	}
	sc.metBufs[i] = b
	return b
}

// decodeBlobInto decodes a v2 blob into the scratch's batch, honoring the
// projection. expectRows ≥ 0 is the brick's authoritative row count (a
// mismatch is corruption); expectRows < 0 accepts the blob's own count up
// to maxDecodeRows (import/fuzz paths).
func decodeBlobInto(data []byte, nDims, nMetrics, expectRows int, proj *Projection, sc *visitScratch) (*Batch, error) {
	if !isV2Blob(data) {
		return nil, errUnknownBlobVersion
	}
	r := colReader{data: data, pos: 2}
	rows64, err := r.readUvarint()
	if err != nil {
		return nil, err
	}
	if rows64 > maxDecodeRows {
		return nil, fmt.Errorf("brick: blob claims %d rows (max %d)", rows64, maxDecodeRows)
	}
	rows := int(rows64)
	if expectRows >= 0 && rows != expectRows {
		return nil, fmt.Errorf("brick: blob has %d rows, brick has %d", rows, expectRows)
	}
	batch := sc.prepare(nDims, nMetrics)
	batch.Rows = rows
	for i := 0; i < nDims; i++ {
		want := proj.dim(i)
		enc, err := r.readByte()
		if err != nil {
			return nil, err
		}
		switch enc {
		case dimEncRaw:
			payload, err := r.take(4 * rows)
			if err != nil {
				return nil, err
			}
			if want == ColSkip {
				continue
			}
			out := sc.dimBuf(i, rows)
			if err := decodeDimRaw(payload, rows, out); err != nil {
				return nil, err
			}
			batch.Dims[i] = out
		case dimEncFOR:
			base64v, err := r.readUvarint()
			if err != nil {
				return nil, err
			}
			if base64v > 0xFFFFFFFF {
				return nil, fmt.Errorf("brick: FOR base overflows uint32")
			}
			wb, err := r.readByte()
			if err != nil {
				return nil, err
			}
			width := int(wb)
			if width > 32 {
				return nil, fmt.Errorf("brick: FOR width %d", width)
			}
			packed, err := r.take(packedLen(rows, width))
			if err != nil {
				return nil, err
			}
			if want == ColSkip {
				continue
			}
			if want == ColGroupEncoded && width == 0 && rows > 0 {
				// A zero-width FOR column is constant: one run.
				runs := sc.runBufs[i][:0]
				runs = append(runs, Run{Value: uint32(base64v), Length: int32(rows)})
				sc.runBufs[i] = runs
				batch.DimRuns[i] = runs
				continue
			}
			out := sc.dimBuf(i, rows)
			if err := decodeDimFOR(packed, uint32(base64v), width, rows, out); err != nil {
				return nil, err
			}
			batch.Dims[i] = out
		case dimEncRLE:
			plen, err := r.readUvarint()
			if err != nil {
				return nil, err
			}
			payload, err := r.take(int(plen))
			if err != nil {
				return nil, err
			}
			if want == ColSkip {
				continue
			}
			runs, err := decodeDimRLE(payload, rows, sc.runBufs[i])
			if err != nil {
				return nil, err
			}
			sc.runBufs[i] = runs
			if want == ColGroupEncoded {
				batch.DimRuns[i] = runs
				continue
			}
			out := sc.dimBuf(i, rows)
			expandRuns(runs, out)
			batch.Dims[i] = out
		case dimEncDelta:
			plen, err := r.readUvarint()
			if err != nil {
				return nil, err
			}
			payload, err := r.take(int(plen))
			if err != nil {
				return nil, err
			}
			if want == ColSkip {
				continue
			}
			out := sc.dimBuf(i, rows)
			if err := decodeDimDelta(payload, rows, out); err != nil {
				return nil, err
			}
			batch.Dims[i] = out
		case dimEncDict:
			plen, err := r.readUvarint()
			if err != nil {
				return nil, err
			}
			payload, err := r.take(int(plen))
			if err != nil {
				return nil, err
			}
			if want == ColSkip {
				continue
			}
			dict, codes, err := decodeDimDict(payload, rows, sc.codeBufs[i])
			if err != nil {
				return nil, err
			}
			sc.codeBufs[i] = codes
			if want == ColGroupEncoded {
				batch.DimDict[i] = dict
				batch.DimCodes[i] = codes
				continue
			}
			out := sc.dimBuf(i, rows)
			expandCodes(codes, dict, out)
			batch.Dims[i] = out
		default:
			return nil, fmt.Errorf("brick: unknown dim encoding %d", enc)
		}
	}
	for i := 0; i < nMetrics; i++ {
		enc, err := r.readByte()
		if err != nil {
			return nil, err
		}
		switch enc {
		case metEncRaw:
			payload, err := r.take(8 * rows)
			if err != nil {
				return nil, err
			}
			if !proj.metric(i) {
				continue
			}
			out := sc.metBuf(i, rows)
			if err := decodeMetricRaw(payload, rows, out); err != nil {
				return nil, err
			}
			batch.Metrics[i] = out
		case metEncXOR:
			plen, err := r.readUvarint()
			if err != nil {
				return nil, err
			}
			payload, err := r.take(int(plen))
			if err != nil {
				return nil, err
			}
			if !proj.metric(i) {
				continue
			}
			out := sc.metBuf(i, rows)
			if err := decodeMetricXOR(payload, rows, out); err != nil {
				return nil, err
			}
			batch.Metrics[i] = out
		case metEncConst:
			payload, err := r.take(8)
			if err != nil {
				return nil, err
			}
			if !proj.metric(i) {
				continue
			}
			v := floatFromBits(binary.LittleEndian.Uint64(payload))
			out := sc.metBuf(i, rows)
			for j := range out {
				out[j] = v
			}
			batch.Metrics[i] = out
		case metEncDict:
			plen, err := r.readUvarint()
			if err != nil {
				return nil, err
			}
			payload, err := r.take(int(plen))
			if err != nil {
				return nil, err
			}
			if !proj.metric(i) {
				continue
			}
			out := sc.metBuf(i, rows)
			if err := decodeMetricDict(payload, rows, out); err != nil {
				return nil, err
			}
			batch.Metrics[i] = out
		default:
			return nil, fmt.Errorf("brick: unknown metric encoding %d", enc)
		}
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("brick: blob has %d trailing bytes", r.remaining())
	}
	return batch, nil
}

// decodeBlobOwned fully materializes a blob into freshly allocated columns
// the caller may keep — the Decompress/Import path.
func decodeBlobOwned(data []byte, nDims, nMetrics, expectRows int) (dims [][]uint32, mets [][]float64, rows int, err error) {
	sc := &visitScratch{}
	batch, err := decodeBlobInto(data, nDims, nMetrics, expectRows, nil, sc)
	if err != nil {
		return nil, nil, 0, err
	}
	// The batch views alias the throwaway scratch, so handing them out is
	// safe — but guarantee exact-length slices for column adoption.
	dims = make([][]uint32, nDims)
	for i := range dims {
		dims[i] = batch.Dims[i][:batch.Rows:batch.Rows]
	}
	mets = make([][]float64, nMetrics)
	for i := range mets {
		mets[i] = batch.Metrics[i][:batch.Rows:batch.Rows]
	}
	return dims, mets, batch.Rows, nil
}

// EncodingStats summarizes which encodings the store's compressed bricks
// chose, by parsing each resident blob header. Evicted bricks are skipped
// (their blobs are behind flate).
type EncodingStats struct {
	Dims    map[string]int
	Metrics map[string]int
}

var metEncName = [...]string{
	metEncRaw: "raw", metEncXOR: "xor", metEncConst: "const", metEncDict: "dict",
}
var dimEncName = [...]string{
	dimEncRaw: "raw", dimEncDict: "dict", dimEncRLE: "rle",
	dimEncFOR: "for", dimEncDelta: "delta",
}

// EncodingStats walks the resident encoded bricks and tallies the encoding
// each column chose — the observable behind the adaptive-encoding tests
// and the `brick.encode.*` counters.
func (s *Store) EncodingStats() EncodingStats {
	st := EncodingStats{Dims: map[string]int{}, Metrics: map[string]int{}}
	nd, nm := len(s.schema.Dimensions), len(s.schema.Metrics)
	for _, e := range s.snapshotBricks() {
		e.b.mu.Lock()
		data := e.b.encoded
		rows := e.b.rows
		e.b.mu.Unlock()
		if data == nil || !isV2Blob(data) {
			continue
		}
		r := colReader{data: data}
		_ = r.skip(2)
		if _, err := r.readUvarint(); err != nil {
			continue
		}
		ok := true
		for i := 0; i < nd && ok; i++ {
			enc, width, err := skipDimColumn(&r, rows)
			if err != nil {
				ok = false
				break
			}
			name := dimEncName[enc]
			if enc == dimEncFOR && width == 0 {
				name = "for0"
			}
			st.Dims[name]++
		}
		for i := 0; i < nm && ok; i++ {
			enc, err := skipMetricColumn(&r, rows)
			if err != nil {
				break
			}
			st.Metrics[metEncName[enc]]++
		}
	}
	return st
}

func skipDimColumn(r *colReader, rows int) (enc byte, width int, err error) {
	enc, err = r.readByte()
	if err != nil {
		return 0, 0, err
	}
	switch enc {
	case dimEncRaw:
		return enc, 0, r.skip(4 * rows)
	case dimEncFOR:
		if _, err := r.readUvarint(); err != nil {
			return 0, 0, err
		}
		wb, err := r.readByte()
		if err != nil {
			return 0, 0, err
		}
		return enc, int(wb), r.skip(packedLen(rows, int(wb)))
	case dimEncDict, dimEncRLE, dimEncDelta:
		plen, err := r.readUvarint()
		if err != nil {
			return 0, 0, err
		}
		return enc, 0, r.skip(int(plen))
	}
	return 0, 0, fmt.Errorf("brick: unknown dim encoding %d", enc)
}

// rleBoundsMaxRuns caps the run-header walk blobBoundsPrune performs on an
// RLE column; beyond it the min/max scan costs more than it saves and the
// column is treated as unbounded.
const rleBoundsMaxRuns = 4096

// blobBoundsPrune reports whether the v2 blob's per-column statistics prove
// that no row can match the filter, without decoding any column. Only FOR
// columns (base and width give an exact lower and a conservative upper
// bound) and dictionary columns (sorted values: the first entry and the
// summed deltas are the exact min/max) carry usable bounds; other encodings
// are walked past. Any structural inconsistency returns false — pruning is
// an optimization, and the full decoder is the authority on corrupt blobs.
func blobBoundsPrune(data []byte, rows, nDims int, f *Filter) bool {
	if f == nil || len(f.Ranges) == 0 || !isV2Blob(data) {
		return false
	}
	maxIdx := -1
	for di := range f.Ranges {
		if di > maxIdx {
			maxIdx = di
		}
	}
	if maxIdx >= nDims {
		return false
	}
	r := colReader{data: data}
	if err := r.skip(2); err != nil {
		return false
	}
	if hdrRows, err := r.readUvarint(); err != nil || hdrRows != uint64(rows) {
		return false
	}
	for di := 0; di <= maxIdx; di++ {
		rng, filtered := f.Ranges[di]
		if !filtered {
			if _, _, err := skipDimColumn(&r, rows); err != nil {
				return false
			}
			continue
		}
		enc, err := r.readByte()
		if err != nil {
			return false
		}
		switch enc {
		case dimEncFOR:
			base, err := r.readUvarint()
			if err != nil || base > 0xFFFFFFFF {
				return false
			}
			wb, err := r.readByte()
			if err != nil || wb > 32 {
				return false
			}
			if r.skip(packedLen(rows, int(wb))) != nil {
				return false
			}
			hi := base
			if wb > 0 {
				hi += uint64(1)<<wb - 1
			}
			if hi > 0xFFFFFFFF {
				hi = 0xFFFFFFFF
			}
			if uint64(rng[1]) < base || uint64(rng[0]) > hi {
				return true
			}
		case dimEncDict:
			plen, err := r.readUvarint()
			if err != nil {
				return false
			}
			payload, err := r.take(int(plen))
			if err != nil {
				return false
			}
			pr := colReader{data: payload}
			k, err := pr.readUvarint()
			if err != nil || k == 0 || k > dictMaxCard {
				return false
			}
			v, err := pr.readUvarint()
			if err != nil || v > 0xFFFFFFFF {
				return false
			}
			lo := uint32(v)
			for i := uint64(1); i < k; i++ {
				d, err := pr.readUvarint()
				if err != nil || d == 0 {
					return false
				}
				v += d
				if v > 0xFFFFFFFF {
					return false
				}
			}
			if uint64(rng[1]) < uint64(lo) || uint64(rng[0]) > v {
				return true
			}
		case dimEncRaw:
			if r.skip(4*rows) != nil {
				return false
			}
		case dimEncRLE:
			plen, err := r.readUvarint()
			if err != nil {
				return false
			}
			payload, err := r.take(int(plen))
			if err != nil {
				return false
			}
			pr := colReader{data: payload}
			k, err := pr.readUvarint()
			// Run values are plain uvarints, so min/max cost one walk over
			// the run headers — worth it only while the run count stays
			// small; a noisy column falls through unpruned.
			if err != nil || k == 0 || k > rleBoundsMaxRuns {
				continue
			}
			var lo, hi uint64 = 0xFFFFFFFFFF, 0
			for i := uint64(0); i < k; i++ {
				v, err := pr.readUvarint()
				if err != nil || v > 0xFFFFFFFF {
					return false
				}
				if _, err := pr.readUvarint(); err != nil { // run length
					return false
				}
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			if uint64(rng[1]) < lo || uint64(rng[0]) > hi {
				return true
			}
		case dimEncDelta:
			plen, err := r.readUvarint()
			if err != nil || r.skip(int(plen)) != nil {
				return false
			}
		default:
			return false
		}
	}
	return false
}

func skipMetricColumn(r *colReader, rows int) (enc byte, err error) {
	enc, err = r.readByte()
	if err != nil {
		return 0, err
	}
	switch enc {
	case metEncRaw:
		return enc, r.skip(8 * rows)
	case metEncXOR, metEncDict:
		plen, err := r.readUvarint()
		if err != nil {
			return 0, err
		}
		return enc, r.skip(int(plen))
	case metEncConst:
		return enc, r.skip(8)
	}
	return 0, fmt.Errorf("brick: unknown metric encoding %d", enc)
}
