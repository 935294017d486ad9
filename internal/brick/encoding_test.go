package brick

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"testing"

	"cubrick/internal/randutil"
)

// blobDimEncs parses a v2 blob's dimension column headers, returning the
// encoding name each column chose ("for0" for a constant FOR column).
func blobDimEncs(t *testing.T, blob []byte, nDims, rows int) []string {
	t.Helper()
	r := colReader{data: blob}
	if err := r.skip(2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.readUvarint(); err != nil {
		t.Fatal(err)
	}
	names := make([]string, nDims)
	for i := 0; i < nDims; i++ {
		enc, width, err := skipDimColumn(&r, rows)
		if err != nil {
			t.Fatalf("dim %d: %v", i, err)
		}
		names[i] = dimEncName[enc]
		if enc == dimEncFOR && width == 0 {
			names[i] = "for0"
		}
	}
	return names
}

func blobMetricEncs(t *testing.T, blob []byte, nDims, nMetrics, rows int) []string {
	t.Helper()
	r := colReader{data: blob}
	_ = r.skip(2)
	if _, err := r.readUvarint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nDims; i++ {
		if _, _, err := skipDimColumn(&r, rows); err != nil {
			t.Fatal(err)
		}
	}
	names := make([]string, nMetrics)
	for i := 0; i < nMetrics; i++ {
		enc, err := skipMetricColumn(&r, rows)
		if err != nil {
			t.Fatalf("metric %d: %v", i, err)
		}
		names[i] = metEncName[enc]
	}
	return names
}

// dimShapes are the dimension column shapes the chooser must both pick the
// expected encoding for and round-trip exactly.
func dimShapes(rnd *randutil.Source, n int) map[string][]uint32 {
	constant := make([]uint32, n)
	for i := range constant {
		constant[i] = 7
	}
	runs := make([]uint32, n)
	for i := range runs {
		runs[i] = uint32(i / (n/4 + 1))
	}
	sparse := make([]uint32, n)
	for i := range sparse {
		sparse[i] = uint32(10000 * (1 + rnd.Intn(8)))
	}
	sequential := make([]uint32, n)
	for i := range sequential {
		sequential[i] = uint32(i)
	}
	random := make([]uint32, n)
	for i := range random {
		random[i] = uint32(rnd.Int63())
	}
	boundary := make([]uint32, n)
	for i := range boundary {
		if i%2 == 0 {
			boundary[i] = 0
		} else {
			boundary[i] = 0xFFFFFFFF
		}
	}
	return map[string][]uint32{
		"constant": constant, "runs": runs, "sparse": sparse,
		"sequential": sequential, "random": random, "boundary": boundary,
	}
}

func TestDimEncodingChoiceAndRoundTrip(t *testing.T) {
	rnd := randutil.New(1)
	const n = 1000
	want := map[string]string{
		"constant":   "for0",
		"runs":       "rle",
		"sparse":     "dict",
		"sequential": "delta",
		"random":     "raw",
	}
	for name, col := range dimShapes(rnd, n) {
		blob := encodeBrickBlob([][]uint32{col}, nil, n, nil)
		if w, ok := want[name]; ok {
			if got := blobDimEncs(t, blob, 1, n)[0]; got != w {
				t.Errorf("%s: chose %s, want %s", name, got, w)
			}
		}
		dims, _, rows, err := decodeBlobOwned(blob, 1, 0, n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rows != n {
			t.Fatalf("%s: rows %d", name, rows)
		}
		for i := range col {
			if dims[0][i] != col[i] {
				t.Fatalf("%s: row %d: %d != %d", name, i, dims[0][i], col[i])
			}
		}
	}
}

func TestMetricEncodingChoiceAndRoundTrip(t *testing.T) {
	rnd := randutil.New(2)
	const n = 1000
	constant := make([]float64, n)
	for i := range constant {
		constant[i] = 42.5
	}
	nan := make([]float64, n)
	for i := range nan {
		nan[i] = floatFromBits(0x7FF8000000000001) // one fixed NaN pattern
	}
	specials := make([]float64, n)
	pool := []float64{0, floatFromBits(0x8000000000000000), // -0
		floatFromBits(0x7FF0000000000000),                       // +Inf
		floatFromBits(0xFFF0000000000000),                       // -Inf
		floatFromBits(0x7FF8000000000000), 1.5, -2.25, 1e300, 5, // NaN
	}
	for i := range specials {
		specials[i] = pool[rnd.Intn(len(pool))]
	}
	smooth := make([]float64, n) // ramp: too many distincts for dict, xor-friendly
	for i := range smooth {
		smooth[i] = float64(i) / 4
	}
	lowcard := make([]float64, n)
	for i := range lowcard {
		lowcard[i] = float64(i%16) * 1.25
	}
	random := make([]float64, n)
	for i := range random {
		random[i] = floatFromBits(uint64(rnd.Int63())<<1 | uint64(rnd.Intn(2)))
	}
	shapes := map[string][]float64{
		"constant": constant, "nan": nan, "specials": specials,
		"smooth": smooth, "lowcard": lowcard, "random": random,
	}
	want := map[string]string{
		"constant": "const", "nan": "const", "smooth": "xor",
		"lowcard": "dict", "random": "raw",
	}
	for name, col := range shapes {
		blob := encodeBrickBlob(nil, [][]float64{col}, n, nil)
		if w, ok := want[name]; ok {
			if got := blobMetricEncs(t, blob, 0, 1, n)[0]; got != w {
				t.Errorf("%s: chose %s, want %s", name, got, w)
			}
		}
		_, mets, _, err := decodeBlobOwned(blob, 0, 1, n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range col {
			// Bit equality, so NaN payloads and -0 must survive.
			if floatBits(mets[0][i]) != floatBits(col[i]) {
				t.Fatalf("%s: row %d: %x != %x", name, i,
					floatBits(mets[0][i]), floatBits(col[i]))
			}
		}
	}
}

// TestBlobRoundTripProperty is the encode→decode property test: random
// multi-column bricks of every shape mix must decode bit-identically.
func TestBlobRoundTripProperty(t *testing.T) {
	rnd := randutil.New(20260805)
	for trial := 0; trial < 60; trial++ {
		rows := 1 + rnd.Intn(3000)
		nDims := 1 + rnd.Intn(4)
		nMetrics := rnd.Intn(3)
		dims := make([][]uint32, nDims)
		for d := range dims {
			col := make([]uint32, rows)
			switch rnd.Intn(5) {
			case 0: // constant
				v := uint32(rnd.Int63())
				for i := range col {
					col[i] = v
				}
			case 1: // runs
				v := uint32(rnd.Intn(100))
				for i := range col {
					if rnd.Bernoulli(0.02) {
						v = uint32(rnd.Intn(100))
					}
					col[i] = v
				}
			case 2: // low cardinality
				card := 1 + rnd.Intn(50)
				for i := range col {
					col[i] = uint32(rnd.Intn(card)) * 997
				}
			case 3: // sorted
				v := uint32(rnd.Intn(1000))
				for i := range col {
					v += uint32(rnd.Intn(5))
					col[i] = v
				}
			default: // random
				for i := range col {
					col[i] = uint32(rnd.Int63())
				}
			}
			dims[d] = col
		}
		mets := make([][]float64, nMetrics)
		for m := range mets {
			col := make([]float64, rows)
			switch rnd.Intn(3) {
			case 0:
				v := floatFromBits(uint64(rnd.Int63()))
				for i := range col {
					col[i] = v
				}
			case 1:
				for i := range col {
					col[i] = float64(rnd.Intn(1 << 12))
				}
			default:
				for i := range col {
					col[i] = floatFromBits(uint64(rnd.Int63())<<1 | uint64(rnd.Intn(2)))
				}
			}
			mets[m] = col
		}
		blob := encodeBrickBlob(dims, mets, rows, nil)
		gotDims, gotMets, gotRows, err := decodeBlobOwned(blob, nDims, nMetrics, rows)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if gotRows != rows {
			t.Fatalf("trial %d: rows %d != %d", trial, gotRows, rows)
		}
		for d := range dims {
			for i := range dims[d] {
				if gotDims[d][i] != dims[d][i] {
					t.Fatalf("trial %d dim %d row %d: %d != %d",
						trial, d, i, gotDims[d][i], dims[d][i])
				}
			}
		}
		for m := range mets {
			for i := range mets[m] {
				if floatBits(gotMets[m][i]) != floatBits(mets[m][i]) {
					t.Fatalf("trial %d metric %d row %d differs", trial, m, i)
				}
			}
		}
	}
}

// TestProjectionSkipsColumns checks that a visit leaves unreferenced
// columns nil and decodes referenced ones correctly.
func TestProjectionSkipsColumns(t *testing.T) {
	b := newBrick(3, 2)
	for i := 0; i < 500; i++ {
		b.append([]uint32{uint32(i % 4), uint32(i), uint32(i % 7)}, []float64{float64(i), 1})
	}
	if err := b.Compress(); err != nil {
		t.Fatal(err)
	}
	proj := &Projection{
		Dims:    []ColRequest{ColNeed, ColSkip, ColSkip},
		Metrics: []bool{false, true},
	}
	_, err := b.visit(proj, nil, func(batch *Batch) error {
		if batch.Rows != 500 {
			return fmt.Errorf("rows %d", batch.Rows)
		}
		if batch.Dims[0] == nil || batch.Dims[1] != nil || batch.Dims[2] != nil {
			return fmt.Errorf("dim projection not honored: %v", batch.Dims)
		}
		if batch.Metrics[0] != nil || batch.Metrics[1] == nil {
			return fmt.Errorf("metric projection not honored")
		}
		for i := range batch.Dims[0] {
			if batch.Dims[0][i] != uint32(i%4) {
				return fmt.Errorf("dim0 row %d = %d", i, batch.Dims[0][i])
			}
			if batch.Metrics[1][i] != 1 {
				return fmt.Errorf("metric1 row %d = %v", i, batch.Metrics[1][i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGroupEncodedViews checks the three ColGroupEncoded delivery shapes:
// runs for RLE, codes+dict for dictionary, a single run for constant FOR.
func TestGroupEncodedViews(t *testing.T) {
	const n = 600
	rleCol := make([]uint32, n)   // long runs → rle
	dictCol := make([]uint32, n)  // sparse low-card → dict
	constCol := make([]uint32, n) // constant → for0
	rnd := randutil.New(3)
	for i := range rleCol {
		rleCol[i] = uint32(i / 100)
		dictCol[i] = uint32(10000 * (1 + rnd.Intn(6)))
		constCol[i] = 9
	}
	b := newBrick(3, 0)
	b.dims = [][]uint32{rleCol, dictCol, constCol}
	b.rows = n
	if err := b.Compress(); err != nil {
		t.Fatal(err)
	}
	proj := &Projection{Dims: []ColRequest{ColGroupEncoded, ColGroupEncoded, ColGroupEncoded}}
	_, err := b.visit(proj, nil, func(batch *Batch) error {
		runs := batch.Runs(0)
		if runs == nil || batch.Dims[0] != nil {
			return fmt.Errorf("dim0: want run view, got %v / dims %v", runs, batch.Dims[0])
		}
		expanded := make([]uint32, n)
		expandRuns(runs, expanded)
		for i := range rleCol {
			if expanded[i] != rleCol[i] {
				return fmt.Errorf("dim0 run view wrong at %d", i)
			}
		}
		codes, dict := batch.Codes(1)
		if codes == nil || batch.Dims[1] != nil {
			return fmt.Errorf("dim1: want dictionary view")
		}
		for i := range dictCol {
			if dict[codes[i]] != dictCol[i] {
				return fmt.Errorf("dim1 dict view wrong at %d", i)
			}
		}
		cruns := batch.Runs(2)
		if len(cruns) != 1 || cruns[0].Value != 9 || int(cruns[0].Length) != n {
			return fmt.Errorf("dim2: want single constant run, got %v", cruns)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestUnknownBlobVersionRejected: a payload without the version bytes — here
// one in the retired flate-of-varints layout — is refused with an explicit
// error wherever a blob is decoded: a resident encoded brick, an evicted
// one behind flate, and a transfer import.
func TestUnknownBlobVersionRejected(t *testing.T) {
	old := encodeVarintColumns([][]uint32{{1, 2, 3}, {7, 7, 7}}, [][]float64{{0.5, 1.5, -2}}, 3)
	noop := func(*Batch) error { return nil }

	resident := newBrick(2, 1)
	resident.rows = 3
	resident.encoded = old
	if _, err := resident.visit(nil, nil, noop); !errors.Is(err, errUnknownBlobVersion) {
		t.Fatalf("resident scan: %v", err)
	}
	if err := resident.Decompress(); !errors.Is(err, errUnknownBlobVersion) {
		t.Fatalf("decompress: %v", err)
	}

	var flated bytes.Buffer
	fw, _ := flate.NewWriter(&flated, flate.BestSpeed)
	fw.Write(old)
	fw.Close()
	evicted := newBrick(2, 1)
	evicted.rows = 3
	evicted.ssd = flated.Bytes()
	evicted.encLen = len(old)
	if _, err := evicted.visit(nil, nil, noop); !errors.Is(err, errUnknownBlobVersion) {
		t.Fatalf("evicted scan: %v", err)
	}

	if _, _, _, err := decodeBlobOwned(old, 2, 1, -1); !errors.Is(err, errUnknownBlobVersion) {
		t.Fatalf("import decode: %v", err)
	}
	if _, _, _, err := decodeBlobOwned(nil, 2, 1, -1); !errors.Is(err, errUnknownBlobVersion) {
		t.Fatalf("empty payload: %v", err)
	}
}

// TestCorruptBlobErrors drives deterministic corruption through the whole
// decoder: every truncation of a valid blob and a set of targeted
// mutations must return an error, never panic.
func TestCorruptBlobErrors(t *testing.T) {
	rnd := randutil.New(4)
	dims := make([][]uint32, 3)
	for d := range dims {
		col := make([]uint32, 200)
		for i := range col {
			switch d {
			case 0:
				col[i] = uint32(i / 40)
			case 1:
				col[i] = uint32(rnd.Intn(5)) * 50000
			default:
				col[i] = uint32(rnd.Int63())
			}
		}
		dims[d] = col
	}
	mets := [][]float64{make([]float64, 200)}
	for i := range mets[0] {
		mets[0][i] = float64(i % 9)
	}
	blob := encodeBrickBlob(dims, mets, 200, nil)
	for cut := 0; cut < len(blob); cut++ {
		if cut == 1 {
			// blob[:1] is 0x00 — the valid legacy empty-brick payload.
			continue
		}
		if _, _, _, err := decodeBlobOwned(blob[:cut], 3, 1, -1); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	// Forged row count: claims more rows than any payload could hold.
	forged := append([]byte{blobVersionByte0, blobVersionByte1}, appendUvarint(nil, maxDecodeRows+1)...)
	if _, _, _, err := decodeBlobOwned(forged, 3, 1, -1); err == nil {
		t.Fatal("oversized row count accepted")
	}
	// Unknown encoding byte.
	bad := append([]byte(nil), blob...)
	bad[3] = 0x7F
	if _, _, _, err := decodeBlobOwned(bad, 3, 1, -1); err == nil {
		t.Fatal("unknown encoding accepted")
	}
	// Trailing garbage.
	if _, _, _, err := decodeBlobOwned(append(append([]byte(nil), blob...), 0xAA), 3, 1, -1); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Row-count mismatch against the brick's authoritative count.
	if _, _, _, err := decodeBlobOwned(blob, 3, 1, 199); err == nil {
		t.Fatal("row mismatch accepted")
	}
}

// TestEncodingStatsObservable checks the Store-level encoding tally that
// the adaptive-encoding tests and operators read.
func TestEncodingStatsObservable(t *testing.T) {
	s, err := NewStore(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 400; i++ {
		s.Insert([]uint32{i % 4, 0, i % 365}, []float64{1, float64(i)})
	}
	if _, _, err := s.EnsureBudget(0, 0.5); err != nil {
		t.Fatal(err)
	}
	st := s.EncodingStats()
	total := 0
	for _, n := range st.Dims {
		total += n
	}
	if total != 3*s.BrickCount() {
		t.Fatalf("dim tally %v covers %d columns, want %d", st.Dims, total, 3*s.BrickCount())
	}
	if st.Dims["for0"] == 0 {
		t.Fatalf("expected constant app column to tally for0: %v", st.Dims)
	}
	if st.Metrics["const"] == 0 {
		t.Fatalf("expected constant events metric to tally const: %v", st.Metrics)
	}
}
