package engine

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"testing"

	"cubrick/internal/randutil"
)

// legacyFinalize is Finalize as it stood while a Partial was a map of
// group objects, kept as the oracle for the flat-row one: one []float64
// per row built in map order, HAVING through a name → column map, ORDER BY
// through sort.Slice, LIMIT by copying the first row headers.
func legacyFinalize(p *Partial) *Result {
	q := p.query
	res := &Result{
		RowsScanned:    p.RowsScanned,
		BricksVisited:  p.BricksVisited,
		BricksPruned:   p.BricksPruned,
		Decompressions: p.Decompressions,
		Coverage:       1,
	}
	for _, g := range q.GroupBy {
		res.Columns = append(res.Columns, g)
	}
	for _, a := range q.Aggregates {
		res.Columns = append(res.Columns, a.Name())
	}
	groups := make(map[string]int32, p.Groups())
	for g := range int32(p.Groups()) {
		groups[fmt.Sprint(p.key(g))] = g
	}
	for _, g := range groups {
		row := make([]float64, 0, len(res.Columns))
		for _, v := range p.key(g) {
			row = append(row, float64(v))
		}
		for i, a := range q.Aggregates {
			row = append(row, p.at(g)[i].finalize(a.Func))
		}
		res.Rows = append(res.Rows, row)
	}
	if len(q.GroupBy) == 0 && len(res.Rows) == 0 {
		row := make([]float64, len(q.Aggregates))
		empty := newCell()
		for i, a := range q.Aggregates {
			row[i] = empty.finalize(a.Func)
		}
		res.Rows = append(res.Rows, row)
	}
	if len(q.Having) > 0 {
		colIdx := make(map[string]int, len(res.Columns))
		for i, c := range res.Columns {
			colIdx[c] = i
		}
		kept := res.Rows[:0]
		for _, row := range res.Rows {
			ok := true
			for _, h := range q.Having {
				if !h.matches(row[colIdx[h.Column]]) {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, row)
			}
		}
		res.Rows = kept
	}
	orderIdx := -1
	if q.OrderBy != "" {
		for i, c := range res.Columns {
			if c == q.OrderBy {
				orderIdx = i
				break
			}
		}
	}
	sort.Slice(res.Rows, func(i, j int) bool {
		a, b := res.Rows[i], res.Rows[j]
		if orderIdx >= 0 {
			if a[orderIdx] != b[orderIdx] {
				if q.Desc {
					return a[orderIdx] > b[orderIdx]
				}
				return a[orderIdx] < b[orderIdx]
			}
		}
		for k := 0; k < len(q.GroupBy); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	if q.Limit > 0 && len(res.Rows) > q.Limit {
		res.Rows = append(make([][]float64, 0, q.Limit), res.Rows[:q.Limit]...)
	}
	return res
}

// randomPartial fills a partial for q with about rows observations over
// keys drawn below domain (offset into the high half of the uint32 range
// when high is set) and metric values drawn from a handful, so ORDER BY
// columns tie often.
func randomPartial(rnd *randutil.Source, q *Query, rows, domain int, high bool) *Partial {
	p := NewPartial(q)
	key := make([]uint32, len(q.GroupBy))
	for r := 0; r < rows; r++ {
		for i := range key {
			key[i] = uint32(rnd.Intn(domain))
			if high {
				key[i] |= 1 << 31
			}
		}
		cells := p.at(p.groupFor(key))
		for i, a := range q.Aggregates {
			if a.Func == CountDistinct {
				cells[i].observeDistinct(uint32(rnd.Intn(40)))
			} else {
				cells[i].observe(float64(rnd.Intn(5)) - 1.5)
			}
		}
	}
	p.RowsScanned, p.BricksVisited = int64(rows), int64(rnd.Intn(9))
	return p
}

// TestFinalizeDifferential: the flat-row Finalize equals the map-and-
// sort.Slice one row for row over random arity 0–3, ORDER BY ascending and
// descending with ties on the order column, LIMIT 0, 1, k and n+1, HAVING
// and CountDistinct. Without an ORDER BY column among the result's — none
// named, or one that is absent — narrow keys take the packed key order and
// high ones (bit 31 set, arity 2 and 3) the row comparator.
func TestFinalizeDifferential(t *testing.T) {
	rnd := randutil.New(0xF1)
	menu := []Aggregate{{Func: Sum, Metric: "m"}, {Func: Count}, {Func: Min, Metric: "m"},
		{Func: Max, Metric: "m"}, {Func: Avg, Metric: "m"}, {Func: CountDistinct, Metric: "u"}}
	ops := []string{"=", "<", "<=", ">", ">="}
	for trial := 0; trial < 400; trial++ {
		q := &Query{GroupBy: []string{"a", "b", "c"}[:rnd.Intn(4)]}
		for n := 1 + rnd.Intn(3); len(q.Aggregates) < n; {
			q.Aggregates = append(q.Aggregates, menu[rnd.Intn(len(menu))])
		}
		rows := []int{0, 1, 5, 60, 400}[rnd.Intn(5)]
		p := randomPartial(rnd, q, rows, []int{2, 5, 40}[rnd.Intn(3)], rnd.Intn(2) == 0)
		cols := append(append([]string(nil), q.GroupBy...), q.Aggregates[rnd.Intn(len(q.Aggregates))].Name())
		switch rnd.Intn(5) {
		case 0:
		case 1:
			q.OrderBy = "absent"
		default:
			q.OrderBy = cols[rnd.Intn(len(cols))]
		}
		q.Desc = rnd.Intn(2) == 0
		for h := rnd.Intn(3); h > 0; h-- {
			q.Having = append(q.Having, HavingCond{Column: cols[rnd.Intn(len(cols))], Op: ops[rnd.Intn(len(ops))],
				Value: float64(rnd.Intn(8)) - 2})
		}
		all := len(legacyFinalize(p).Rows)
		for _, limit := range []int{0, 1, 1 + rnd.Intn(all+1), all + 1} {
			q.Limit = limit
			want, got := legacyFinalize(p), p.Finalize()
			err := Oracle.Equal(want, got)
			if err == nil && (want.Rows == nil) != (got.Rows == nil) {
				// Equal takes nil and empty rows as equal; the JSON reply does not.
				err = fmt.Errorf("nil rows %v, want nil %v", got.Rows == nil, want.Rows == nil)
			}
			if err != nil {
				t.Fatalf("trial %d, %d groups, groupby %v order %q desc %v limit %d having %v: %v",
					trial, p.Groups(), q.GroupBy, q.OrderBy, q.Desc, limit, q.Having, err)
			}
		}
	}
}

// TestKeyOrder: the packed key order is the groups in ascending key order,
// key column 0 most significant, whenever keys and index fit 64 bits; two
// high key columns (bit 31 set) do not, so Finalize sorts their rows with
// the comparator.
func TestKeyOrder(t *testing.T) {
	rnd := randutil.New(0x0D)
	for _, tc := range []struct {
		arity, domain int
		high, packs   bool
	}{
		{0, 1, false, true},
		{1, 5, false, true},
		{1, 1000, true, true},
		{2, 40, false, true},
		{2, 40, true, false},
		{3, 40, false, true},
		{3, 7, true, false},
	} {
		q := &Query{GroupBy: []string{"a", "b", "c"}[:tc.arity], Aggregates: []Aggregate{{Func: Count}}}
		p := randomPartial(rnd, q, 500, tc.domain, tc.high)
		order, ok := p.keyOrder()
		if ok != tc.packs {
			t.Fatalf("arity %d domain %d high %v: packs %v, want %v", tc.arity, tc.domain, tc.high, ok, tc.packs)
		}
		if !ok {
			continue
		}
		if len(order) != p.Groups() {
			t.Fatalf("arity %d: %d groups ordered of %d", tc.arity, len(order), p.Groups())
		}
		for i := 1; i < len(order); i++ {
			if a, b := p.key(int32(order[i-1])), p.key(int32(order[i])); slices.Compare(a, b) >= 0 {
				t.Fatalf("arity %d domain %d: key %v ordered before %v", tc.arity, tc.domain, a, b)
			}
		}
	}
}

// TestReleasedPartialReuse: a partial released after a CountDistinct
// query keeps no sketch, and the pooled partial the next query of another
// arity and aggregate count takes answers bit for bit as a fresh one.
func TestReleasedPartialReuse(t *testing.T) {
	rnd := randutil.New(0x9E)
	wide := &Query{GroupBy: []string{"a", "b"}, Aggregates: []Aggregate{{Func: CountDistinct, Metric: "u"}, {Func: Sum, Metric: "m"}}}
	narrow := &Query{GroupBy: []string{"a"}, Aggregates: []Aggregate{{Func: Sum, Metric: "m"}, {Func: Count}, {Func: Max, Metric: "m"}}}
	blobs := func(q *Query) [][]byte {
		var out [][]byte
		for i := 0; i < 3; i++ {
			blob, err := randomPartial(rnd, q, 300, 40, false).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, blob)
		}
		return out
	}
	merge := func(p *Partial, blobs [][]byte) *Result {
		for _, blob := range blobs {
			if err := MergeWire(p, blob); err != nil {
				t.Fatal(err)
			}
		}
		return p.Finalize()
	}
	wideBlobs, narrowBlobs := blobs(wide), blobs(narrow)
	fresh := &Partial{query: narrow, groupSlab: groupSlab{arity: 1, nAggs: 3}}
	want := merge(fresh, narrowBlobs)
	for round := 0; round < 3; round++ {
		p := NewPartial(wide)
		merge(p, wideBlobs)
		p.Release()
		for _, c := range p.cells[:cap(p.cells)] {
			if c.sketch != nil {
				t.Fatalf("round %d: a released partial holds a sketch", round)
			}
		}
		next := NewPartial(narrow)
		if err := Oracle.Equal(want, merge(next, narrowBlobs)); err != nil {
			t.Fatalf("round %d: the pooled partial answers unlike a fresh one: %v", round, err)
		}
		next.Release()
	}
}

// TestMergeWireBlobReuse: MergeWire keeps nothing of the blob, so a
// coordinator may hand the blob's buffer to the next read: overwriting
// every blob after the merge leaves the result unchanged.
func TestMergeWireBlobReuse(t *testing.T) {
	rnd := randutil.New(0xB1)
	for _, groupBy := range [][]string{nil, {"a"}, {"a", "b"}, {"a", "b", "c"}} {
		q := &Query{GroupBy: groupBy, Aggregates: []Aggregate{{Func: Sum, Metric: "m"}, {Func: CountDistinct, Metric: "u"}}}
		var blobs [][]byte
		for i := 0; i < 4; i++ {
			blob, err := randomPartial(rnd, q, 200, 8, i%2 == 0).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			blobs = append(blobs, blob)
		}
		want := NewPartial(q)
		got := NewPartial(q)
		for _, blob := range blobs {
			if err := MergeWire(want, bytes.Clone(blob)); err != nil {
				t.Fatal(err)
			}
			if err := MergeWire(got, blob); err != nil {
				t.Fatal(err)
			}
			for i := range blob {
				blob[i] = 0xFF
			}
		}
		if err := Oracle.Equal(want.Finalize(), got.Finalize()); err != nil {
			t.Fatalf("groupby %v: overwriting the blobs changed the merge: %v", groupBy, err)
		}
	}
}

// TestMarshalBinaryDeterministic: a Partial's wire bytes follow its slab
// order, so marshalling it twice — before and after a probe builds its
// index — gives the same bytes, in a buffer of exactly their size, and the
// bytes decode to the same answer.
func TestMarshalBinaryDeterministic(t *testing.T) {
	rnd := randutil.New(0xD1)
	for _, groupBy := range [][]string{nil, {"a"}, {"a", "b"}, {"a", "b", "c"}} {
		q := &Query{GroupBy: groupBy, Aggregates: []Aggregate{{Func: Avg, Metric: "m"}, {Func: CountDistinct, Metric: "u"}}}
		p := randomPartial(rnd, q, 300, 9, true)
		first, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if cap(first) != len(first) {
			t.Fatalf("groupby %v: %d wire bytes in a buffer of %d, want it sized exactly", groupBy, len(first), cap(first))
		}
		if err := p.Merge(NewPartial(q)); err != nil {
			t.Fatal(err)
		}
		second, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("groupby %v: two marshals of one partial differ", groupBy)
		}
		back, err := UnmarshalPartial(q, first)
		if err != nil {
			t.Fatal(err)
		}
		if err := Oracle.Equal(p.Finalize(), back.Finalize()); err != nil {
			t.Fatalf("groupby %v: round trip: %v", groupBy, err)
		}
	}
}
