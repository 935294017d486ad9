package benchkit

import (
	"fmt"
	"math"
)

// cell is one aggregate's running state for one group.
type cell struct {
	sum      float64
	n        int64
	min, max float64
}

func (c *cell) value(f AggFunc) float64 {
	switch f {
	case Sum:
		return c.sum
	case Count:
		return float64(c.n)
	case Min:
		return c.min
	case Max:
		return c.max
	default:
		return c.sum / float64(c.n)
	}
}

// groupKey packs a group's dimension values; every dimension fits 16 bits.
type groupKey uint64

func keyOf(vals []float64) groupKey {
	var k groupKey
	for _, v := range vals {
		k = k<<16 | groupKey(uint32(v))
	}
	return k
}

// Eval recomputes q over the first n rows in plain Go: one pass, one map,
// nothing shared with the engine under test.
func Eval(rows *Rows, n int, q *Query) map[groupKey][]cell {
	out := make(map[groupKey][]cell)
scan:
	for i := 0; i < n; i++ {
		for d := range q.Filter {
			if v := rows.Dims[d][i]; v < q.Filter[d][0] || v > q.Filter[d][1] {
				continue scan
			}
		}
		var k groupKey
		for _, d := range q.GroupBy {
			k = k<<16 | groupKey(rows.Dims[d][i])
		}
		cells, ok := out[k]
		if !ok {
			cells = make([]cell, len(q.Aggs))
			for j := range cells {
				cells[j].min, cells[j].max = math.Inf(1), math.Inf(-1)
			}
			out[k] = cells
		}
		for j, a := range q.Aggs {
			v := rows.Metrics[a.Metric][i]
			c := &cells[j]
			c.sum += v
			c.n++
			c.min = math.Min(c.min, v)
			c.max = math.Max(c.max, v)
		}
	}
	return out
}

// bounds returns the range an aggregate's value may take for a group
// whose state was lc at the early snapshot (nil: the group did not exist
// yet) and hc at the late one. Metric values are non-negative.
func bounds(f AggFunc, lc, hc *cell) (lo, hi float64) {
	switch f {
	case Sum:
		if lc != nil {
			lo = lc.sum
		}
		return lo, hc.sum
	case Count:
		if lc != nil {
			lo = float64(lc.n)
		}
		return lo, float64(hc.n)
	case Min:
		hi = hc.max
		if lc != nil {
			hi = lc.min
		}
		return hc.min, hi
	case Max:
		lo = hc.min
		if lc != nil {
			lo = lc.max
		}
		return lo, hc.max
	default:
		v := hc.value(Avg)
		return v, v
	}
}

// relTol is the relative error allowed on sums and averages.
const relTol = 1e-9

func within(got, lo, hi float64) bool {
	slack := relTol * math.Max(math.Abs(lo), math.Abs(hi))
	return got >= lo-slack && got <= hi+slack
}

// Check compares a reply's rows against the oracle. The reply must be
// the answer over some row set between the first nLo and the first nHi
// rows (nLo == nHi when nothing was being ingested, which makes every
// bound an equality): ingest lands partition by partition, so a query
// racing a batch may see part of it. Every aggregate benchkit issues under
// ingest moves one way as rows arrive, so each value is bounded by the two
// snapshots. A top-k reply is checked as a set: each returned group's
// value in bounds, the right number of groups, and no left-out group
// certainly above the smallest returned value (ties may fall either way).
func Check(rows *Rows, nLo, nHi int, q *Query, reply [][]float64) error {
	lo := Eval(rows, nLo, q)
	hi := lo
	if nHi != nLo {
		hi = Eval(rows, nHi, q)
		for _, a := range q.Aggs {
			if a.Func == Avg {
				return fmt.Errorf("avg cannot be bounded under ingest")
			}
		}
	}
	ng := len(q.GroupBy)
	seen := make(map[groupKey]bool, len(reply))
	threshold := math.Inf(1)
	for _, row := range reply {
		if len(row) != ng+len(q.Aggs) {
			return fmt.Errorf("row has %d columns, want %d", len(row), ng+len(q.Aggs))
		}
		k := keyOf(row[:ng])
		if seen[k] {
			return fmt.Errorf("group %v returned twice", row[:ng])
		}
		seen[k] = true
		hc, ok := hi[k]
		if !ok {
			return fmt.Errorf("group %v is not in the data", row[:ng])
		}
		lc := lo[k] // nil when the group appeared between the snapshots
		for j, a := range q.Aggs {
			var lcell *cell
			if lc != nil {
				lcell = &lc[j]
			}
			l, h := bounds(a.Func, lcell, &hc[j])
			if got := row[ng+j]; !within(got, l, h) {
				return fmt.Errorf("group %v %s = %v, want [%v, %v]", row[:ng], a.cql(), got, l, h)
			}
		}
		if q.TopK > 0 && row[ng] < threshold {
			threshold = row[ng]
		}
	}
	if q.TopK == 0 {
		for k := range lo {
			if !seen[k] {
				return fmt.Errorf("group %#x missing from the reply", uint64(k))
			}
		}
		return nil
	}
	wantLo, wantHi := min(q.TopK, len(lo)), min(q.TopK, len(hi))
	if len(reply) < wantLo || len(reply) > wantHi {
		return fmt.Errorf("top-%d returned %d groups, want %d to %d", q.TopK, len(reply), wantLo, wantHi)
	}
	for k, c := range lo {
		if v := c[0].value(q.Aggs[0].Func); !seen[k] && v > threshold*(1+relTol) {
			return fmt.Errorf("top-%d left out group %#x with %v above returned %v", q.TopK, uint64(k), v, threshold)
		}
	}
	return nil
}
