package engine

import (
	"testing"

	"cubrick/internal/brick"
)

// fuzzQuery is the fixed query shape the fuzzer decodes against: two
// group-by dimensions and a mixed aggregate list including a
// CountDistinct, so sketch payloads are exercised.
func fuzzQuery() *Query {
	return &Query{
		Aggregates: []Aggregate{
			{Func: Sum, Metric: "events"},
			{Func: Avg, Metric: "latency"},
			{Func: CountDistinct, Metric: "app"},
		},
		GroupBy: []string{"region", "app"},
	}
}

// fuzzSeeds marshals real partials (with and without data, filtered and
// not) so the fuzzer starts from valid wire blobs and mutates toward the
// interesting corruption space.
func fuzzSeeds(f *testing.F) {
	q := fuzzQuery()
	s := loadStore(f)
	for _, query := range []*Query{
		q,
		{Aggregates: q.Aggregates, GroupBy: q.GroupBy, Filter: map[string][2]uint32{"region": {0, 1}}},
	} {
		p, err := runQuery(s, query)
		if err != nil {
			f.Fatal(err)
		}
		blob, err := p.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	empty, _ := brick.NewStore(testSchema())
	p, err := runQuery(empty, q)
	if err != nil {
		f.Fatal(err)
	}
	blob, err := p.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte{})
	f.Add([]byte("CBPR"))
}

// FuzzUnmarshalPartial drives corrupt, truncated and adversarial wire
// blobs through the zero-copy decode path. Invariants: no panic, no
// unbounded allocation from forged headers, and any blob that decodes
// must survive finalize + re-marshal + re-decode with identical group
// count (the decoder only accepts self-consistent partials).
func FuzzUnmarshalPartial(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		q := fuzzQuery()
		p, err := UnmarshalPartial(q, data)
		if err != nil {
			return
		}
		res := p.Finalize()
		if len(res.Rows) != p.Groups() && p.Groups() > 0 {
			t.Fatalf("finalize produced %d rows for %d groups", len(res.Rows), p.Groups())
		}
		blob, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted partial does not re-marshal: %v", err)
		}
		p2, err := UnmarshalPartial(q, blob)
		if err != nil {
			t.Fatalf("re-marshaled partial does not decode: %v", err)
		}
		if p2.Groups() != p.Groups() {
			t.Fatalf("round trip changed group count: %d != %d", p2.Groups(), p.Groups())
		}
	})
}
