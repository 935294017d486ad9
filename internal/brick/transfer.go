package brick

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// exportBlob returns the brick's columnar payload in the version-2
// adaptive format without changing the brick's tier: encoded bricks hand
// out their blob as-is, evicted bricks inflate it transiently, raw bricks
// encode on the fly. Export metrics are not counted as tier transitions.
func (b *Brick) exportBlob() ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.encoded != nil {
		return b.encoded, nil
	}
	if b.ssd != nil {
		data, _, err := b.blobLocked(nil)
		return data, err
	}
	return encodeBrickBlob(b.dims, b.metrics, b.rows, nil), nil
}

// Export serializes the full store (schema-less; the receiver must create
// its store with the same schema) for shard migration: on a live migration
// the new server copies the data from the old one, on a failover from a
// healthy replica in another region (§IV-E). Per-brick payloads reuse the
// already-encoded adaptive blobs, so exporting a compressed store does not
// re-encode anything; the outer flate layer keeps the wire format compact.
//
// Export is ExportSince(0): a store's brick has epoch 0 only between its
// creation and its first append, while it holds no rows.
func (s *Store) Export() ([]byte, error) {
	blob, _, err := s.ExportSince(0)
	return blob, err
}

// ExportSince serializes only the bricks whose epoch is newer than since,
// in the same wire format as Export. It returns the blob together with the
// epoch the delta covers: every row stamped with an epoch in (since,
// covered] is contained in the blob. The covered epoch is read before the
// brick snapshot, so it is a conservative claim — rows appended between
// the read and the snapshot ship now and again on the next delta, which
// is harmless because import replaces whole bricks by id.
//
// A shard migration ships the full store first (since = 0 is equivalent
// to Export), then loops ExportSince(prevCovered) to tail live ingest
// until the epoch gap closes under the cutover pause.
func (s *Store) ExportSince(since uint64) ([]byte, uint64, error) {
	covered := s.Epoch()
	var raw bytes.Buffer
	var scratch [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		raw.Write(scratch[:n])
	}
	var changed []brickEntry
	for _, e := range s.snapshotBricks() {
		if e.b.Epoch() > since {
			changed = append(changed, e)
		}
	}
	put(uint64(len(changed)))
	for _, e := range changed {
		put(e.id)
		payload, err := e.b.exportBlob()
		if err != nil {
			return nil, 0, err
		}
		put(uint64(len(payload)))
		raw.Write(payload)
	}
	blob, err := deflate(raw.Bytes())
	if err != nil {
		return nil, 0, err
	}
	return blob, covered, nil
}

// decodeTransfer parses an Export/ExportSince blob into per-brick columns.
// All payloads decode before any store state changes, so a truncated or
// forged blob cannot leave a store half-imported.
func (s *Store) decodeTransfer(blob []byte) ([]transferBrick, error) {
	var r bytes.Buffer
	if err := inflate(&r, blob); err != nil {
		return nil, fmt.Errorf("brick: import: %w", err)
	}
	nBricks, err := binary.ReadUvarint(&r)
	if err != nil {
		return nil, fmt.Errorf("brick: import header: %w", err)
	}
	if nBricks > uint64(r.Len()) {
		return nil, fmt.Errorf("brick: import claims %d bricks in %d bytes", nBricks, r.Len())
	}
	decoded := make([]transferBrick, 0, nBricks)
	for i := uint64(0); i < nBricks; i++ {
		id, err := binary.ReadUvarint(&r)
		if err != nil {
			return nil, fmt.Errorf("brick: import brick id: %w", err)
		}
		plen, err := binary.ReadUvarint(&r)
		if err != nil {
			return nil, fmt.Errorf("brick: import brick len: %w", err)
		}
		if plen > uint64(r.Len()) {
			return nil, fmt.Errorf("brick: import brick payload claims %d bytes, %d remain", plen, r.Len())
		}
		if _, err := s.schema.BrickBounds(id); err != nil {
			return nil, fmt.Errorf("brick: import brick %d: %w", id, err)
		}
		// The decoded columns are copies, so the payload may alias r.
		dims, metrics, rows, err := decodeBlobOwned(r.Next(int(plen)), len(s.schema.Dimensions), len(s.schema.Metrics), -1)
		if err != nil {
			return nil, err
		}
		decoded = append(decoded, transferBrick{id: id, dims: dims, metrics: metrics, rows: rows})
	}
	return decoded, nil
}

type transferBrick struct {
	id      uint64
	dims    [][]uint32
	metrics [][]float64
	rows    int
}

// buildBrick wires a decoded transfer payload into a live brick attached
// to this store's observer, epoch source and dictionary cache. Imported
// bricks are a fresh data generation: each is stamped with a new epoch so
// caches keyed on the replaced bricks cannot serve for the imported ones.
func (s *Store) buildBrick(tb transferBrick) *Brick {
	b := s.newBrick()
	b.dims = tb.dims
	b.metrics = tb.metrics
	b.rows = tb.rows
	b.epoch = s.epoch.Add(1)
	return b
}

// Import replaces the store's contents with a previously Exported blob.
// Bricks arrive uncompressed; the memory monitor will compress them later
// if there is pressure.
func (s *Store) Import(blob []byte) error {
	decoded, err := s.decodeTransfer(blob)
	if err != nil {
		return err
	}
	bricks := make(map[uint64]*Brick, len(decoded))
	ids := make([]uint64, 0, len(decoded))
	var total int64
	for _, tb := range decoded {
		bricks[tb.id] = s.buildBrick(tb)
		ids = append(ids, tb.id)
		total += int64(tb.rows)
	}
	s.mu.Lock()
	old := s.bricks
	s.bricks = bricks
	s.rows = total
	s.publishLocked(nil, ids)
	s.mu.Unlock()
	for _, b := range old {
		b.retire()
	}
	return nil
}

// ImportBricks merges an Export/ExportSince blob into the store by brick
// id: bricks already present are replaced wholesale, new ids are added,
// ids absent from the blob are untouched. Because each shipped brick
// carries its complete row set, re-applying the same delta is idempotent
// in content — a migration driver that crashed after a partially acked
// import simply re-ships the delta. Returns the number of rows the store
// gained (negative if replaced bricks shrank, which cannot happen for
// append-only ingest but keeps the accounting honest).
func (s *Store) ImportBricks(blob []byte) (int64, error) {
	decoded, err := s.decodeTransfer(blob)
	if err != nil {
		return 0, err
	}
	var delta int64
	ids := make([]uint64, 0, len(decoded))
	s.mu.Lock()
	for _, tb := range decoded {
		if old, ok := s.bricks[tb.id]; ok {
			delta -= int64(old.Rows())
			old.retire()
		}
		s.bricks[tb.id] = s.buildBrick(tb)
		ids = append(ids, tb.id)
		delta += int64(tb.rows)
	}
	s.rows += delta
	s.publishLocked(s.snapshotBricks(), ids)
	s.mu.Unlock()
	return delta, nil
}

// AdvanceEpochTo raises the store's epoch counter to at least e. A
// migration target calls this with the source's covered epoch after each
// delta import so the target's epochs continue where the source's left
// off — coordinators compare epochs across the ownership flip, and a
// target that restarted from zero would look staler than cached results
// pinned to the source's higher epochs.
func (s *Store) AdvanceEpochTo(e uint64) {
	for {
		cur := s.epoch.Load()
		if cur >= e || s.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}
