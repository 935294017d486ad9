package brick

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"cubrick/internal/randutil"
)

// benchShape builds one brick's worth of columns in a named shape.
func benchShape(name string, n int, rnd *randutil.Source) (dims [][]uint32, mets [][]float64) {
	d0 := make([]uint32, n)
	d1 := make([]uint32, n)
	d2 := make([]uint32, n)
	m0 := make([]float64, n)
	m1 := make([]float64, n)
	switch name {
	case "lowcard":
		for i := 0; i < n; i++ {
			d0[i] = uint32(rnd.Intn(8)) * 5000 // sparse low-card → dict
			d1[i] = uint32(i / 1000)           // long runs → rle
			d2[i] = 7                          // constant → for0
			m0[i] = 1                          // constant metric
			m1[i] = float64(i % 16)            // xor-friendly
		}
	case "sequential":
		for i := 0; i < n; i++ {
			d0[i] = uint32(i)      // delta
			d1[i] = uint32(i / 4)  // delta/rle
			d2[i] = uint32(i % 32) // narrow FOR
			m0[i] = float64(i) / 4
			m1[i] = float64(i % 16)
		}
	case "random":
		for i := 0; i < n; i++ {
			d0[i] = uint32(rnd.Int63())
			d1[i] = uint32(rnd.Int63())
			d2[i] = uint32(rnd.Int63())
			m0[i] = floatFromBits(uint64(rnd.Int63())<<1 | uint64(rnd.Intn(2)))
			m1[i] = floatFromBits(uint64(rnd.Int63())<<1 | uint64(rnd.Intn(2)))
		}
	}
	return [][]uint32{d0, d1, d2}, [][]float64{m0, m1}
}

// encodeVarintColumns / decodeVarintColumns are the bench's flate baseline:
// the pre-adaptive layout (row count, each dimension column as plain
// varints, each metric column as raw bits) that evicted bricks used to
// carry behind flate. Nothing in the package reads it any more.
func encodeVarintColumns(dims [][]uint32, metrics [][]float64, rows int) []byte {
	buf := binary.AppendUvarint(nil, uint64(rows))
	for _, col := range dims {
		for _, v := range col {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}
	for _, col := range metrics {
		for _, v := range col {
			buf = binary.LittleEndian.AppendUint64(buf, floatBits(v))
		}
	}
	return buf
}

func decodeVarintColumns(data []byte, nDims, nMetrics int) ([][]uint32, [][]float64, error) {
	r := bytes.NewReader(data)
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, nil, err
	}
	dims := make([][]uint32, nDims)
	for i := range dims {
		dims[i] = make([]uint32, n)
		for j := range dims[i] {
			v, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, nil, err
			}
			dims[i][j] = uint32(v)
		}
	}
	metrics := make([][]float64, nMetrics)
	var mbits [8]byte
	for i := range metrics {
		metrics[i] = make([]float64, n)
		for j := range metrics[i] {
			if _, err := io.ReadFull(r, mbits[:]); err != nil {
				return nil, nil, err
			}
			metrics[i][j] = floatFromBits(binary.LittleEndian.Uint64(mbits[:]))
		}
	}
	return dims, metrics, nil
}

// timeDecodes runs decode repeatedly for at least minDur and returns
// decoded rows per second.
func timeDecodes(n int, minDur time.Duration, decode func()) float64 {
	start := time.Now()
	iters := 0
	for time.Since(start) < minDur {
		decode()
		iters++
	}
	return float64(n) * float64(iters) / time.Since(start).Seconds()
}

// TestStorageBench is the bench harness behind scripts/bench.sh: when
// STORAGE_BENCH_OUT is set it measures compression ratio and cold-scan
// decode throughput for the legacy flate-of-varints baseline versus the
// adaptive per-column encoding, across low-cardinality, sequential and
// random data shapes, and writes the results as JSON.
func TestStorageBench(t *testing.T) {
	out := os.Getenv("STORAGE_BENCH_OUT")
	if out == "" {
		t.Skip("set STORAGE_BENCH_OUT to run the storage bench")
	}
	const n = 100_000
	const minDur = 300 * time.Millisecond
	rnd := randutil.New(11)

	type row struct {
		Shape          string  `json:"shape"`
		Rows           int     `json:"rows"`
		RawBytes       int     `json:"raw_bytes"`
		FlateBytes     int     `json:"flate_bytes"`
		AdaptiveBytes  int     `json:"adaptive_bytes"`
		RatioVsFlate   float64 `json:"ratio_vs_flate"`
		FlateRowsPerS  float64 `json:"flate_scan_rows_per_s"`
		AdaptRowsPerS  float64 `json:"adaptive_scan_rows_per_s"`
		ScanSpeedup    float64 `json:"scan_speedup"`
		AdaptEncodings string  `json:"adaptive_dim_encodings"`
	}
	var rows []row
	for _, shape := range []string{"lowcard", "sequential", "random"} {
		dims, mets := benchShape(shape, n, rnd)
		rawBytes := 4*3*n + 8*2*n

		v1 := encodeVarintColumns(dims, mets, n)
		var fbuf bytes.Buffer
		fw, _ := flate.NewWriter(&fbuf, flate.BestSpeed)
		fw.Write(v1)
		fw.Close()
		flated := fbuf.Bytes()
		flateScan := timeDecodes(n, minDur, func() {
			fr := flate.NewReader(bytes.NewReader(flated))
			inflated, err := io.ReadAll(fr)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := decodeVarintColumns(inflated, 3, 2); err != nil {
				t.Fatal(err)
			}
		})

		blob := encodeBrickBlob(dims, mets, n, nil)
		sc := &visitScratch{}
		adaptScan := timeDecodes(n, minDur, func() {
			if _, err := decodeBlobInto(blob, 3, 2, n, nil, sc); err != nil {
				t.Fatal(err)
			}
		})

		encs := ""
		for i, name := range blobDimEncs(t, blob, 3, n) {
			if i > 0 {
				encs += ","
			}
			encs += name
		}
		rows = append(rows, row{
			Shape: shape, Rows: n,
			RawBytes: rawBytes, FlateBytes: len(flated), AdaptiveBytes: len(blob),
			RatioVsFlate:  float64(len(blob)) / float64(len(flated)),
			FlateRowsPerS: flateScan, AdaptRowsPerS: adaptScan,
			ScanSpeedup:    adaptScan / flateScan,
			AdaptEncodings: encs,
		})
	}
	blob, err := json.MarshalIndent(map[string]interface{}{
		"generated": time.Now().UTC().Format(time.RFC3339),
		"rows":      rows,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%s: ratio_vs_flate=%.2f scan_speedup=%.1fx (%s)",
			r.Shape, r.RatioVsFlate, r.ScanSpeedup, r.AdaptEncodings)
	}
}
