package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"cubrick/internal/hll"
)

// Wire format for partial results, so workers can return partials over the
// network and coordinators can merge them exactly. Layout (little endian):
//
//	u32 magic "CBPR"
//	uvarint rowsScanned
//	uvarint bricksVisited
//	uvarint bricksPruned
//	uvarint decompressions
//	uvarint groupKeyLen (uint32 count per group)
//	uvarint cellCount (aggregates per group)
//	uvarint groupCount
//	per group: groupKeyLen × u32 key values,
//	           cellCount × (f64 sum, varint count, f64 min, f64 max,
//	                        uvarint sketchLen, sketchLen sketch bytes)
//
// sketchLen is zero for cells without a distinct-count sketch. Groups are
// written in the Partial's slab order, so a given Partial always encodes to
// the same bytes.
const partialMagic = 0x43425052 // "CBPR"

// MarshalBinary serializes the partial's accumulators (not finalized
// values, so avg/min/max merge exactly on the coordinator) into one buffer
// of exactly the encoded size.
func (p *Partial) MarshalBinary() ([]byte, error) {
	return appendPartial(nil, &p.groupSlab,
		[4]int64{p.RowsScanned, p.BricksVisited, p.BricksPruned, p.Decompressions}), nil
}

// appendPartial is the one wire encoder: it appends s's groups under the
// scan counters (rows scanned, bricks visited, bricks pruned,
// decompressions) to dst. A dst without room for the encoding is replaced
// by one with room for it, or twice dst's capacity if that is more, so a
// reused buffer stops regrowing; a nil dst gets exactly the room needed.
func appendPartial(dst []byte, s *groupSlab, counters [4]int64) []byte {
	n := s.len()
	header := [...]uint64{uint64(counters[0]), uint64(counters[1]), uint64(counters[2]),
		uint64(counters[3]), uint64(s.arity), uint64(s.nAggs), uint64(n)}
	size := 4 + 4*n*s.arity
	for _, v := range header {
		size += uvarintLen(v)
	}
	for _, c := range s.cells {
		size += 8 + uvarintLen(uint64(c.count)) + 8 + 8 + 1
		if c.sketch != nil {
			size += uvarintLen(hll.BinarySize) - 1 + hll.BinarySize
		}
	}
	if cap(dst)-len(dst) < size {
		dst = append(make([]byte, 0, max(len(dst)+size, 2*cap(dst))), dst...)
	}
	buf := binary.LittleEndian.AppendUint32(dst, partialMagic)
	for _, v := range header {
		buf = binary.AppendUvarint(buf, v)
	}
	for g := range int32(n) {
		for _, k := range s.key(g) {
			buf = binary.LittleEndian.AppendUint32(buf, k)
		}
		for _, c := range s.at(g) {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.sum))
			buf = binary.AppendUvarint(buf, uint64(c.count))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.min))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.max))
			if c.sketch == nil {
				buf = append(buf, 0)
				continue
			}
			buf = binary.AppendUvarint(buf, hll.BinarySize)
			buf, _ = c.sketch.AppendBinary(buf)
		}
	}
	return buf
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

var errTruncatedPartial = errors.New("engine: truncated partial")

// wireCursor walks a wire blob in place: fixed-width fields are decoded at
// an offset and variable-length regions are returned as subslices, so the
// hot decode path never copies payload bytes.
type wireCursor struct {
	data []byte
	off  int
}

func (c *wireCursor) remaining() int { return len(c.data) - c.off }

func (c *wireCursor) u32() (uint32, error) {
	if c.remaining() < 4 {
		return 0, errTruncatedPartial
	}
	v := binary.LittleEndian.Uint32(c.data[c.off:])
	c.off += 4
	return v, nil
}

func (c *wireCursor) f64() (float64, error) {
	if c.remaining() < 8 {
		return 0, errTruncatedPartial
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.data[c.off:]))
	c.off += 8
	return v, nil
}

func (c *wireCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 {
		return 0, errTruncatedPartial
	}
	c.off += n
	return v, nil
}

// slice returns the next n bytes of the blob without copying.
func (c *wireCursor) slice(n int) ([]byte, error) {
	if n < 0 || n > c.remaining() {
		return nil, errTruncatedPartial
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b, nil
}

// MergeWire folds a wire-format partial directly into p's accumulators.
// This is the coordinator's decode path: the slab and its index are sized
// for at least the blob's group count up front (later blobs often repeat
// groups p holds, so past the first p grows only as new ones arrive), each
// group key read from the blob probes the index, a new group's key is
// copied into the slab, cells merge
// in place (no intermediate Partial), and distinct-count sketches merge
// register-wise straight from the wire bytes. Nothing p holds afterwards
// refers to data, so the caller may reuse the blob's buffer. The blob's
// shape must match p's query exactly.
//
// On a decode error p may have absorbed a prefix of the blob's groups;
// callers treat any error as fatal for the whole merge (the coordinator
// fails the query), so no rollback is attempted.
func MergeWire(p *Partial, data []byte) error {
	if p == nil || p.query == nil {
		return errors.New("engine: MergeWire needs a query-bound partial")
	}
	q := p.query
	cur := &wireCursor{data: data}

	magic, err := cur.u32()
	if err != nil || magic != partialMagic {
		return fmt.Errorf("engine: bad partial magic")
	}
	var header [4]uint64 // rowsScanned, bricksVisited, bricksPruned, decompressions
	for i := range header {
		if header[i], err = cur.uvarint(); err != nil {
			return fmt.Errorf("engine: corrupt partial header: %w", err)
		}
	}
	keyLen, err := cur.uvarint()
	if err != nil {
		return fmt.Errorf("engine: corrupt partial header: %w", err)
	}
	cells, err := cur.uvarint()
	if err != nil {
		return fmt.Errorf("engine: corrupt partial header: %w", err)
	}
	if int(keyLen) != len(q.GroupBy) || int(cells) != len(q.Aggregates) {
		return fmt.Errorf("engine: partial shape %d/%d does not match query %d/%d",
			keyLen, cells, len(q.GroupBy), len(q.Aggregates))
	}
	nGroups, err := cur.uvarint()
	if err != nil {
		return fmt.Errorf("engine: corrupt partial header: %w", err)
	}
	// Every group occupies at least this many wire bytes (empty sketches),
	// which bounds the believable group count before any allocation — an
	// adversarial header cannot make the decoder reserve unbounded memory.
	minGroupBytes := 4*int(keyLen) + int(cells)*(8+1+8+8+1)
	if minGroupBytes < 1 {
		minGroupBytes = 1
	}
	if nGroups > uint64(cur.remaining()/minGroupBytes) {
		return fmt.Errorf("engine: group count %d exceeds payload", nGroups)
	}

	p.grow(int(nGroups))
	var kbuf [4]uint32 // a key of up to 4 values is read without allocating
	key := append(kbuf[:0], make([]uint32, keyLen)...)
	for gi := uint64(0); gi < nGroups; gi++ {
		for i := range key {
			if key[i], err = cur.u32(); err != nil {
				return fmt.Errorf("engine: corrupt group key: %w", err)
			}
		}
		cells := p.at(p.groupFor(key))
		for i := range cells {
			c := &cells[i]
			sum, err := cur.f64()
			if err != nil {
				return fmt.Errorf("engine: corrupt cell: %w", err)
			}
			cnt, err := cur.uvarint()
			if err != nil {
				return fmt.Errorf("engine: corrupt cell count: %w", err)
			}
			mn, err := cur.f64()
			if err != nil {
				return fmt.Errorf("engine: corrupt cell: %w", err)
			}
			mx, err := cur.f64()
			if err != nil {
				return fmt.Errorf("engine: corrupt cell: %w", err)
			}
			c.sum += sum
			c.count += int64(cnt)
			if mn < c.min {
				c.min = mn
			}
			if mx > c.max {
				c.max = mx
			}
			sketchLen, err := cur.uvarint()
			if err != nil {
				return fmt.Errorf("engine: corrupt sketch header: %w", err)
			}
			if sketchLen == 0 {
				continue
			}
			if sketchLen > uint64(cur.remaining()) {
				return fmt.Errorf("engine: sketch length %d exceeds payload", sketchLen)
			}
			blob, err := cur.slice(int(sketchLen))
			if err != nil {
				return fmt.Errorf("engine: corrupt sketch: %w", err)
			}
			if c.sketch == nil {
				c.sketch = hll.New()
			}
			if err := c.sketch.MergeBinary(blob); err != nil {
				return err
			}
		}
	}
	if cur.remaining() != 0 {
		return fmt.Errorf("engine: %d trailing bytes in partial", cur.remaining())
	}
	p.RowsScanned += int64(header[0])
	p.BricksVisited += int64(header[1])
	p.BricksPruned += int64(header[2])
	p.Decompressions += int64(header[3])
	return nil
}

// UnmarshalPartial parses a wire partial for the given query. The query
// must structurally match the one the partial was produced with (same
// group-by arity and aggregate count). It is a thin wrapper over
// MergeWire: the wire blob folds into a fresh empty partial.
func UnmarshalPartial(q *Query, data []byte) (*Partial, error) {
	p := NewPartial(q)
	if err := MergeWire(p, data); err != nil {
		return nil, err
	}
	return p, nil
}
