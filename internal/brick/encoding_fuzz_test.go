package brick

import (
	"errors"
	"testing"
)

// The fuzz targets mirror the forged-count hardening of the wire decoders:
// whatever bytes arrive, a column decoder may return an error but must
// never panic, and its allocations are bounded by the declared row count.

// FuzzDecodeBrick drives the whole-blob decoder with untrusted input, as
// the Import path does. Anything without the version bytes — the seeds
// include a payload in the retired varint layout — is refused as such.
func FuzzDecodeBrick(f *testing.F) {
	dims := [][]uint32{{1, 2, 3, 3}, {5, 5, 5, 5}, {9, 8, 7, 6}}
	mets := [][]float64{{1, 2, 3, 4}, {0.5, 0.5, 0.5, 0.5}}
	f.Add(encodeBrickBlob(dims, mets, 4, nil))
	f.Add(encodeVarintColumns(dims, mets, 4))
	f.Add([]byte{blobVersionByte0, blobVersionByte1, 4})
	f.Add([]byte{0x00})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		gd, gm, rows, err := decodeBlobOwned(data, 3, 2, -1)
		if !isV2Blob(data) && !errors.Is(err, errUnknownBlobVersion) {
			t.Fatalf("unversioned payload: err = %v, want %v", err, errUnknownBlobVersion)
		}
		if err != nil {
			return
		}
		if rows < 0 || rows > maxDecodeRows {
			t.Fatalf("accepted blob with %d rows", rows)
		}
		for _, col := range gd {
			if len(col) != rows {
				t.Fatalf("dim column length %d for %d rows", len(col), rows)
			}
		}
		for _, col := range gm {
			if len(col) != rows {
				t.Fatalf("metric column length %d for %d rows", len(col), rows)
			}
		}
		// A blob the decoder accepted must re-encode and decode to the same
		// data: decode is a left inverse of encode on its accepted set.
		re := encodeBrickBlob(gd, gm, rows, nil)
		rd, rm, rrows, err := decodeBlobOwned(re, 3, 2, rows)
		if err != nil || rrows != rows {
			t.Fatalf("re-encode roundtrip failed: %v (rows %d vs %d)", err, rrows, rows)
		}
		for d := range gd {
			for i := range gd[d] {
				if rd[d][i] != gd[d][i] {
					t.Fatalf("dim %d row %d changed across roundtrip", d, i)
				}
			}
		}
		for m := range gm {
			for i := range gm[m] {
				if floatBits(rm[m][i]) != floatBits(gm[m][i]) {
					t.Fatalf("metric %d row %d changed across roundtrip", m, i)
				}
			}
		}
	})
}

// FuzzDecodeDimColumn exercises each length-prefixed dimension decoder on
// raw payload bytes with an attacker-chosen row count.
func FuzzDecodeDimColumn(f *testing.F) {
	f.Add(byte(dimEncRLE), uint16(4), []byte{2, 1, 2, 7, 2})
	f.Add(byte(dimEncDelta), uint16(3), []byte{2, 1, 1})
	f.Add(byte(dimEncDict), uint16(4), []byte{2, 5, 3, 1, 0b0110})
	f.Fuzz(func(t *testing.T, enc byte, rows16 uint16, payload []byte) {
		rows := int(rows16)
		switch enc % 3 {
		case 0:
			runs, err := decodeDimRLE(payload, rows, nil)
			if err == nil {
				total := 0
				for _, r := range runs {
					if r.Length <= 0 {
						t.Fatal("accepted non-positive run length")
					}
					total += int(r.Length)
				}
				if total != rows {
					t.Fatalf("runs cover %d rows, declared %d", total, rows)
				}
			}
		case 1:
			out := make([]uint32, rows)
			_ = decodeDimDelta(payload, rows, out)
		default:
			dict, codes, err := decodeDimDict(payload, rows, nil)
			if err == nil {
				if len(codes) != rows {
					t.Fatalf("codes length %d for %d rows", len(codes), rows)
				}
				for _, c := range codes {
					if int(c) >= len(dict) {
						t.Fatal("accepted out-of-range dictionary code")
					}
				}
			}
		}
	})
}

// FuzzDecodeMetricColumn exercises the XOR and dictionary metric decoders,
// whose control bytes and counts drive variable-length reads.
func FuzzDecodeMetricColumn(f *testing.F) {
	// Two rows of 1.0: ctrl 0x06 (lz=0, tz=6) + 2 significant bytes, then
	// ctrl 0x80 (unchanged value).
	f.Add(byte(0), uint16(2), []byte{0x06, 0xF0, 0x3F, 0x80})
	f.Add(byte(0), uint16(1), []byte{0x80})
	// Two-entry dictionary {0, 1.0}, 1-bit codes 0b10 → rows {0, 1.0}.
	f.Add(byte(1), uint16(2),
		[]byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xF0, 0x3F, 1, 0b10})
	f.Fuzz(func(t *testing.T, sel byte, rows16 uint16, payload []byte) {
		rows := int(rows16)
		out := make([]float64, rows)
		if sel%2 == 0 {
			_ = decodeMetricXOR(payload, rows, out)
		} else {
			_ = decodeMetricDict(payload, rows, out)
		}
	})
}
