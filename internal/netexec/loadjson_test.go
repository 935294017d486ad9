package netexec

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// loadRef is the /load request as the front ends decoded it with
// encoding/json before DecodeLoad: the reference FuzzDecodeLoad checks
// against.
type loadRef struct {
	Table string `json:"table"`
	Rows  []struct {
		Dims    []uint32  `json:"dims"`
		Metrics []float64 `json:"metrics"`
	} `json:"rows"`
}

// benchLoadBody is a /load body shaped like the benchmark's loads: four
// dimensions and two integral metrics per row.
func benchLoadBody(rows int) []byte {
	rnd := rand.New(rand.NewSource(1))
	b := []byte(`{"table":"events","rows":[`)
	for i := 0; i < rows; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"dims":[`...)
		for d, max := range []int{128, 16, 1024, 64} {
			if d > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(rnd.Intn(max)), 10)
		}
		b = append(b, `],"metrics":[`...)
		b = strconv.AppendFloat(b, float64(rnd.Intn(1000)), 'g', -1, 64)
		b = append(b, ',')
		b = strconv.AppendFloat(b, float64(1+rnd.Intn(9)), 'g', -1, 64)
		b = append(b, `]}`...)
	}
	return append(b, `]}`...)
}

// outsideContract reports whether a body whose first value is well formed
// lies outside what DecodeLoad's contract compares with encoding/json: a
// key that matches table, rows, dims or metrics only case-insensitively,
// one of those keys twice in an object, or data after the value.
func outsideContract(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	// A float64 token would fail on 1e1000, which a skipped key may hold.
	dec.UseNumber()
	var seen []map[string]bool // per open object; nil for an array
	expectKey := func() bool { n := len(seen); return n > 0 && seen[n-1] != nil }
	afterKey := false
	for {
		tok, err := dec.Token()
		if err != nil {
			return false // malformed: no narrowing excuses a difference
		}
		switch tok {
		case json.Delim('{'):
			seen = append(seen, map[string]bool{})
			afterKey = false
		case json.Delim('['):
			seen = append(seen, nil)
			afterKey = false
		case json.Delim('}'), json.Delim(']'):
			seen = seen[:len(seen)-1]
			afterKey = false
		default:
			if key, ok := tok.(string); ok && expectKey() && !afterKey {
				for _, name := range []string{"table", "rows", "dims", "metrics"} {
					if key != name && strings.EqualFold(key, name) {
						return true
					}
				}
				if seen[len(seen)-1][key] {
					return true
				}
				seen[len(seen)-1][key] = true
				afterKey = true
				continue
			}
			afterKey = false
		}
		if len(seen) == 0 {
			rest := data[dec.InputOffset():]
			return len(bytes.TrimLeft(rest, " \t\r\n")) > 0
		}
	}
}

func FuzzDecodeLoad(f *testing.F) {
	f.Add(benchLoadBody(3))
	f.Add([]byte(`{"rows":[{"metrics":[1.5e3,-0,null],"x":{"dims":[-1]},"dims":[4294967295,0]},null],"table":"té😀"}`))
	f.Add([]byte(`null`))
	f.Add([]byte(` {"table":null,"rows":null} `))
	for _, dim := range []string{"-1", "4294967296", "1.5", "1e3"} {
		f.Add([]byte(`{"table":"t","rows":[{"dims":[` + dim + `],"metrics":[1]}]}`))
	}
	f.Add(benchLoadBody(3)[:40])
	f.Add([]byte(`{"table":"t","rows":[{"dims":["1"],"metrics":[1]}]}`))
	f.Add([]byte(`{"table":"t","rows":[{"dims":[1],"metrics":["1"]}]}`))
	f.Add([]byte(`{"rowſ":""}`)) // folds to "rows" in encoding/json only
	f.Add([]byte(`{"x":[1e1000]}0`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var ref loadRef
		refErr := json.NewDecoder(bytes.NewReader(data)).Decode(&ref)
		table, dims, mets, err := DecodeLoad(bytes.NewReader(data))
		if refErr != nil && err != nil || outsideContract(data) {
			return
		}
		if refErr != nil {
			t.Fatalf("encoding/json rejects (%v), DecodeLoad accepts %q", refErr, data)
		}
		if err != nil {
			t.Fatalf("encoding/json accepts, DecodeLoad rejects %q: %v", data, err)
		}
		if table != ref.Table || len(dims) != len(ref.Rows) || len(mets) != len(ref.Rows) {
			t.Fatalf("table %q with %d rows, want %q with %d", table, len(dims), ref.Table, len(ref.Rows))
		}
		for i, row := range ref.Rows {
			if !slices.Equal(dims[i], row.Dims) || cap(dims[i]) != len(dims[i]) {
				t.Fatalf("row %d dims %v (cap %d), want %v", i, dims[i], cap(dims[i]), row.Dims)
			}
			if len(mets[i]) != len(row.Metrics) || cap(mets[i]) != len(mets[i]) {
				t.Fatalf("row %d metrics %v (cap %d), want %v", i, mets[i], cap(mets[i]), row.Metrics)
			}
			for j, v := range row.Metrics {
				if math.Float64bits(mets[i][j]) != math.Float64bits(v) {
					t.Fatalf("row %d metric %d = %v, want %v", i, j, mets[i][j], v)
				}
			}
		}
	})
}

// TestDecodeLoadContract pins the narrowings encoding/json does not make
// and the rejects the front ends answer 400.
func TestDecodeLoadContract(t *testing.T) {
	table, dims, mets, err := DecodeLoad(strings.NewReader(`{"Table":"x","rows":[{"DIMS":[1],"dims":[2],"metrics":[3]}],"table":"t"}`))
	if err != nil || table != "t" || len(dims) != 1 || !slices.Equal(dims[0], []uint32{2}) || mets[0][0] != 3 {
		t.Fatalf("case-variant keys: %q %v %v %v, want them skipped", table, dims, mets, err)
	}
	for _, body := range []string{
		``,
		`[]`,
		`{"table":"t","table":"u"}`,
		`{"rows":[],"rows":[]}`,
		`{"rows":[{"dims":[1],"dims":[2]}]}`,
		`{"rows":[{"metrics":[1],"metrics":[2]}]}`,
		`{"table":"t"} {}`,
		`{"table":"t"}x`,
		`{"table":7}`,
		`{"rows":{}}`,
		`{"rows":[7]}`,
		`{"rows":[{"dims":[01]}]}`,
		`{"rows":[{"dims":[1,]}]}`,
		`{"rows":[{"metrics":[1e400]}]}`,
		`{"rows":[{"metrics":[true]}]}`,
		`{"x":[1,{"y":tru}]}`,
		`{"x":"\q"}`,
		`{"x":"` + "\x01" + `"}`,
		strings.Repeat("[", maxLoadDepth),
		`{"x":` + strings.Repeat("[", maxLoadDepth) + strings.Repeat("]", maxLoadDepth) + `}`,
	} {
		if _, _, _, err := DecodeLoad(strings.NewReader(body)); err == nil {
			t.Errorf("DecodeLoad accepted %.60q", body)
		}
	}
	if _, _, _, err := DecodeLoad(strings.NewReader(`{"x":` + strings.Repeat("[", maxLoadDepth-1) + strings.Repeat("]", maxLoadDepth-1) + `}`)); err != nil {
		t.Errorf("nesting at encoding/json's limit: %v", err)
	}
	readErr := errors.New("connection reset")
	if _, _, _, err := DecodeLoad(io.MultiReader(strings.NewReader(`{"rows":[`), iotest.ErrReader(readErr))); !errors.Is(err, readErr) {
		t.Errorf("read error = %v, want %v", err, readErr)
	}
}

// TestDecodeLoadAllocsFlat checks that a body's allocations do not grow
// with its rows: the rows share flat buffers that grow by doubling.
func TestDecodeLoadAllocsFlat(t *testing.T) {
	small, large := benchLoadBody(100), benchLoadBody(10000)
	allocs := func(body []byte) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, _, _, err := DecodeLoad(bytes.NewReader(body)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(small), allocs(large); b > 2*a+40 {
		t.Fatalf("DecodeLoad allocates %.0f objects for 100 rows and %.0f for 10 000; want no per-row allocation", a, b)
	}
}

var (
	loadSinkDims [][]uint32
	loadSinkMets [][]float64
)

// BenchmarkDecodeLoad20k decodes one benchmark-shaped /load body of
// 20 000 rows: the front ends' per-batch parse cost.
func BenchmarkDecodeLoad20k(b *testing.B) {
	body := benchLoadBody(20000)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if _, loadSinkDims, loadSinkMets, err = DecodeLoad(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}
