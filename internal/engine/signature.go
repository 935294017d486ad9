package engine

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// mathFloat64bits encodes a HAVING operand bit-exactly (so 0.1 and the
// nearest float to it can never be conflated by decimal formatting).
func mathFloat64bits(v float64) uint64 { return math.Float64bits(v) }

// Query signatures: a canonical string encoding of the parts of a query
// that determine accumulator structure and scan semantics. Two queries
// with equal signatures produce structurally and semantically mergeable
// partials; two queries with equal fold keys additionally scan the same
// rows, so they compute the same partial over the same data. Cosmetic
// fields (aliases, order, limit, having) are applied at finalize time and
// are deliberately excluded from both.

// QuerySignature returns the canonical semantic signature of a query: the
// aggregate list (function and input, position by position — Count ignores
// its metric), the GROUP BY columns in order and, for a joined query, the
// join (table, ON column, attributes). It is the single source
// of truth for "same query shape", used by Partial.Merge validation and as
// the prefix of fold keys.
func QuerySignature(q *Query) string {
	if q == nil {
		return ""
	}
	var b strings.Builder
	for _, a := range q.Aggregates {
		b.WriteString(strconv.Itoa(int(a.Func)))
		b.WriteByte('(')
		// Count ignores its metric; count(*) and count(value) are the
		// same aggregate and must share a signature.
		if a.Func != Count {
			b.WriteString(a.Metric)
		}
		b.WriteByte(')')
		b.WriteByte('\x01')
	}
	b.WriteByte('\x02')
	for _, g := range q.GroupBy {
		b.WriteString(g)
		b.WriteByte('\x01')
	}
	// A joined query's groups hold dimension-table attributes, so the join
	// is part of its shape; a query without one keeps the bytes above.
	if j := q.Join; j != nil {
		b.WriteString("\x04" + j.Table + "\x01" + j.On + "\x01" + strings.Join(j.Attrs, "\x01"))
	}
	return b.String()
}

// FoldKey returns the prefix of the result cache's key (rescache.Key): the
// semantic signature plus the normalized filter set (dimension ranges
// sorted by dimension name, so map iteration order cannot split equivalent
// queries). Queries with equal fold keys compile to the same projection,
// filter, and scan plan over a given store, so they compute the same
// partial.
func FoldKey(q *Query) string {
	if q == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString(QuerySignature(q))
	b.WriteByte('\x03')
	if len(q.Filter) == 0 {
		return b.String()
	}
	dims := make([]string, 0, len(q.Filter))
	for d := range q.Filter {
		dims = append(dims, d)
	}
	sort.Strings(dims)
	for _, d := range dims {
		r := q.Filter[d]
		b.WriteString(d)
		b.WriteByte('=')
		b.WriteString(strconv.FormatUint(uint64(r[0]), 10))
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(uint64(r[1]), 10))
		b.WriteByte('\x01')
	}
	return b.String()
}

// ResidueKey canonically encodes everything FoldKey deliberately ignores:
// aliases, ORDER BY, sort direction, LIMIT, and HAVING — the finalize-time
// residue. Two queries with equal fold keys may still produce different
// finished Results when their residues differ (a LIMIT 5 and a LIMIT 500
// of the same aggregation, say), so result caches must key on
// FoldKey + ResidueKey, never on FoldKey alone.
func ResidueKey(q *Query) string {
	if q == nil {
		return ""
	}
	var b strings.Builder
	for _, a := range q.Aggregates {
		b.WriteString(a.Name())
		b.WriteByte('\x01')
	}
	b.WriteByte('\x02')
	b.WriteString(q.OrderBy)
	b.WriteByte('\x02')
	if q.Desc {
		b.WriteByte('1')
	} else {
		b.WriteByte('0')
	}
	b.WriteByte('\x02')
	b.WriteString(strconv.Itoa(q.Limit))
	b.WriteByte('\x02')
	for _, h := range q.Having {
		b.WriteString(h.Column)
		b.WriteByte('\x01')
		b.WriteString(h.Op)
		b.WriteByte('\x01')
		b.WriteString(strconv.FormatUint(mathFloat64bits(h.Value), 16))
		b.WriteByte('\x03')
	}
	return b.String()
}
