package engine

import (
	"math"
	"testing"
	"testing/quick"

	"cubrick/internal/brick"
)

func TestPartialWireRoundTrip(t *testing.T) {
	s := loadStore(t)
	q := &Query{
		Aggregates: []Aggregate{
			{Func: Sum, Metric: "events"},
			{Func: Avg, Metric: "latency"},
			{Func: Min, Metric: "latency"},
			{Func: Max, Metric: "latency"},
			{Func: Count},
		},
		GroupBy: []string{"region", "app"},
	}
	p, err := runQuery(s, q)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := UnmarshalPartial(q, blob)
	if err != nil {
		t.Fatal(err)
	}
	a, b := p.Finalize(), p2.Finalize()
	if len(a.Rows) != len(b.Rows) || a.RowsScanned != b.RowsScanned {
		t.Fatalf("shape differs: %d/%d rows, %d/%d scanned", len(a.Rows), len(b.Rows), a.RowsScanned, b.RowsScanned)
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				t.Fatalf("row %d col %d: %v vs %v", i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
}

func TestWireMergeEqualsLocalMerge(t *testing.T) {
	s := loadStore(t)
	q := &Query{
		Aggregates: []Aggregate{{Func: Avg, Metric: "events"}},
		GroupBy:    []string{"region"},
	}
	p1, _ := runQuery(s, q)
	p2, _ := runQuery(s, q)

	local := NewPartial(q)
	local.Merge(p1)
	local.Merge(p2)

	b1, _ := p1.MarshalBinary()
	b2, _ := p2.MarshalBinary()
	remote := NewPartial(q)
	for _, blob := range [][]byte{b1, b2} {
		rp, err := UnmarshalPartial(q, blob)
		if err != nil {
			t.Fatal(err)
		}
		remote.Merge(rp)
	}
	a, b := local.Finalize(), remote.Finalize()
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if math.Abs(a.Rows[i][j]-b.Rows[i][j]) > 1e-12 {
				t.Fatalf("merge mismatch at %d/%d: %v vs %v", i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
}

// TestMergeWireEqualsUnmarshalMerge pins the zero-copy fast path against
// the two-step reference (UnmarshalPartial then Merge): folding wire blobs
// directly into an accumulator must produce an identical finalized result,
// including CountDistinct sketches merged register-wise from the wire.
func TestMergeWireEqualsUnmarshalMerge(t *testing.T) {
	s := loadStore(t)
	queries := []*Query{
		{
			Aggregates: []Aggregate{
				{Func: Sum, Metric: "events"},
				{Func: Avg, Metric: "latency"},
				{Func: Min, Metric: "latency"},
				{Func: Max, Metric: "latency"},
				{Func: CountDistinct, Metric: "app"},
			},
			GroupBy: []string{"region"},
		},
		{Aggregates: []Aggregate{{Func: Count}, {Func: CountDistinct, Metric: "region"}}},
		{
			Aggregates: []Aggregate{{Func: Sum, Metric: "events"}},
			GroupBy:    []string{"region", "app"},
			Filter:     map[string][2]uint32{"app": {2, 7}},
		},
	}
	for qi, q := range queries {
		var blobs [][]byte
		for i := 0; i < 3; i++ {
			p, err := runQuery(s, q)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := p.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			blobs = append(blobs, blob)
		}
		reference := NewPartial(q)
		for _, blob := range blobs {
			rp, err := UnmarshalPartial(q, blob)
			if err != nil {
				t.Fatal(err)
			}
			if err := reference.Merge(rp); err != nil {
				t.Fatal(err)
			}
		}
		direct := NewPartial(q)
		for _, blob := range blobs {
			if err := MergeWire(direct, blob); err != nil {
				t.Fatal(err)
			}
		}
		if err := Oracle.Equal(reference.Finalize(), direct.Finalize()); err != nil {
			t.Fatalf("query %d: MergeWire diverged from reference: %v", qi, err)
		}
	}
}

func TestMergeWireErrors(t *testing.T) {
	q := &Query{Aggregates: []Aggregate{{Func: Count}}}
	if err := MergeWire(nil, nil); err == nil {
		t.Fatal("nil partial accepted")
	}
	if err := MergeWire(&Partial{}, nil); err == nil {
		t.Fatal("query-less partial accepted")
	}
	if err := MergeWire(NewPartial(q), []byte("CBPRgarbage")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Forged group count: a header claiming billions of groups over a tiny
	// payload must be rejected before any allocation.
	q2 := &Query{Aggregates: []Aggregate{{Func: Count}}, GroupBy: []string{"app"}}
	forged := []byte{0x52, 0x50, 0x42, 0x43}                                            // magic "CBPR" little-endian
	forged = append(forged, 0, 0, 0, 0)                                                 // zero scan counters
	forged = append(forged, 1, 1)                                                       // keyLen=1, cells=1
	forged = append(forged, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01) // huge group count
	if err := MergeWire(NewPartial(q2), forged); err == nil {
		t.Fatal("forged group count accepted")
	}
}

func TestUnmarshalPartialErrors(t *testing.T) {
	q := &Query{Aggregates: []Aggregate{{Func: Count}}}
	if _, err := UnmarshalPartial(q, nil); err == nil {
		t.Fatal("empty blob accepted")
	}
	if _, err := UnmarshalPartial(q, []byte("garbage data here")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Shape mismatch: partial from a two-aggregate query into a one-agg
	// query.
	s := loadStore(t)
	q2 := &Query{Aggregates: []Aggregate{{Func: Count}, {Func: Sum, Metric: "events"}}}
	p, _ := runQuery(s, q2)
	blob, _ := p.MarshalBinary()
	if _, err := UnmarshalPartial(q, blob); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	// Truncated blob.
	if _, err := UnmarshalPartial(q2, blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated blob accepted")
	}
	// Trailing junk.
	if _, err := UnmarshalPartial(q2, append(blob, 0xFF)); err == nil {
		t.Fatal("trailing junk accepted")
	}
}

// Property: round-tripping random data never panics, and valid partials
// always survive the round trip bit-exactly.
func TestWireFuzzProperty(t *testing.T) {
	q := &Query{Aggregates: []Aggregate{{Func: Sum, Metric: "events"}}, GroupBy: []string{"app"}}
	f := func(junk []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("UnmarshalPartial panicked: %v", r)
			}
		}()
		UnmarshalPartial(q, junk)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyPartialWire(t *testing.T) {
	q := &Query{Aggregates: []Aggregate{{Func: Count}}, GroupBy: []string{"app"}}
	st, _ := brick.NewStore(testSchema())
	p, err := runQuery(st, q)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := UnmarshalPartial(q, blob)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Groups() != 0 {
		t.Fatalf("empty partial round trip has %d groups", p2.Groups())
	}
}
