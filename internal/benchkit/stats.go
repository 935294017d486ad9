package benchkit

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs: the
// ceil(q·n)-th smallest value. xs is sorted in place. An empty slice
// yields NaN so a missing measurement can never read as a fast one.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// Median is Percentile(xs, 0.5).
func Median(xs []float64) float64 { return Percentile(xs, 0.5) }

// Interval is a half-open stretch of wall time, in nanoseconds since the
// run's time origin.
type Interval struct{ Start, End int64 }

// UnionLen returns the total length covered by the intervals, counting
// overlapping stretches once. ivs is sorted in place.
func UnionLen(ivs []Interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
	var total int64
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv.Start > cur.End {
			total += cur.End - cur.Start
			cur = iv
			continue
		}
		if iv.End > cur.End {
			cur.End = iv.End
		}
	}
	return total + cur.End - cur.Start
}

// SelfTime is a parent span's duration minus the part of it its children
// cover: children are clipped to the parent and overlapping children
// count once.
func SelfTime(parent Interval, children []Interval) int64 {
	clipped := make([]Interval, 0, len(children))
	for _, c := range children {
		if c.Start < parent.Start {
			c.Start = parent.Start
		}
		if c.End > parent.End {
			c.End = parent.End
		}
		if c.End > c.Start {
			clipped = append(clipped, c)
		}
	}
	return parent.End - parent.Start - UnionLen(clipped)
}

// ParseProm reads Prometheus text exposition and returns every unlabelled
// sample (counters, gauges, and the _sum/_count lines of summaries).
// Labelled lines — the quantile rows — are skipped: the benchmark diffs
// totals and computes its own percentiles.
func ParseProm(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// ProcSample is one reading of a process's CPU time and resident set.
type ProcSample struct {
	CPU time.Duration // user + system
	RSS int64         // bytes
}

// clockTick is USER_HZ, the unit of the CPU fields of /proc/<pid>/stat.
// It is 100 on every Linux ABI Go supports.
const clockTick = 100

// SampleProc reads /proc/<pid>/stat.
func SampleProc(pid int) (ProcSample, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ProcSample{}, err
	}
	return parseProcStat(string(raw))
}

func parseProcStat(s string) (ProcSample, error) {
	// The command name (field 2) is parenthesised and may hold spaces, so
	// fields are counted from the last ')'.
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return ProcSample{}, fmt.Errorf("malformed /proc stat %q", s)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime, stime and rss are fields 14, 15, 24.
	if len(f) < 22 {
		return ProcSample{}, fmt.Errorf("short /proc stat %q", s)
	}
	var n [3]int64
	for k, idx := range []int{11, 12, 21} {
		v, err := strconv.ParseInt(f[idx], 10, 64)
		if err != nil {
			return ProcSample{}, fmt.Errorf("/proc stat field %d: %w", idx+3, err)
		}
		n[k] = v
	}
	return ProcSample{
		CPU: time.Duration(n[0]+n[1]) * time.Second / clockTick,
		RSS: n[2] * int64(os.Getpagesize()),
	}, nil
}
