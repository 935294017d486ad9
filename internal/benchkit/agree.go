package benchkit

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
)

// Agree runs every workload runs times per set, two sets, each run on
// another seed, all on the same code, and reports whether the benchmark
// is steady enough to judge a change: for every end-to-end metric of
// every workload the two sets' medians must lie within the metric's bound
// of each other, every window must have had minSamples queries, no
// operation may have failed, and — given at least four runs per set —
// the spread of each set (interquartile range over median) must stay
// within the bound too, set-up time excepted. It returns the exit code.
func Agree(ctx context.Context, runs int, seed int64, seconds float64, out io.Writer) int {
	printJSON(out, "env", Env(seed))
	ok := true
	for i := range Workloads {
		w := &Workloads[i]
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = make(map[string][]float64)
			for r := 0; r < runs; r++ {
				runCtx, cancel := context.WithTimeout(ctx, runLimit)
				rep, err := Run(runCtx, Options{Workload: w, Seed: seed + int64(set*runs+r), Seconds: seconds, Log: io.Discard})
				cancel()
				if err != nil {
					fmt.Fprintf(out, "%s set %d run %d: %v\n", w.Name, set+1, r+1, err)
					return 1
				}
				if !rep.Correct || rep.Samples < minSamples {
					fmt.Fprintf(out, "%s set %d run %d: correct=%v failed=%d samples=%d (need %d)\n",
						w.Name, set+1, r+1, rep.Correct, rep.Failed, rep.Samples, minSamples)
					ok = false
				}
				for name, v := range rep.Metrics {
					sets[set][name] = append(sets[set][name], v)
				}
			}
		}
		for _, d := range EndToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			ma, mb := midMedian(a), midMedian(b)
			drift := math.Abs(mb-ma) / ma
			verdict := "agree"
			if drift > d.Bound {
				verdict, ok = "DISAGREE", false
			}
			line := fmt.Sprintf("%s %s median %.4g vs %.4g %s drift %.3f bound %.2f", w.Name, d.Name, ma, mb, d.Unit, drift, d.Bound)
			if runs >= 4 {
				sa, sb := Spread(a), Spread(b)
				line += fmt.Sprintf(" spread %.3f %.3f", sa, sb)
				if d.Name != "setup_s" && math.Max(sa, sb) > d.Bound {
					verdict, ok = "DISAGREE", false
				}
			}
			fmt.Fprintln(out, line, verdict)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// Spread is the distance between the first and third quartile of xs as a
// share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method), because
// that is how the benchmark is judged.
func Spread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	quartile := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		i := int(pos)
		switch {
		case i < 1:
			return s[0]
		case i >= n:
			return s[n-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return (quartile(3) - quartile(1)) / midMedian(s)
}

// midMedian is the median as Python's statistics.median gives it: the
// mean of the two middle values when their number is even. (Percentile
// is nearest-rank, which is what latency percentiles want.)
func midMedian(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	return (s[(n-1)/2] + s[n/2]) / 2
}
