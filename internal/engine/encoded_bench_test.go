package engine

import (
	"fmt"
	"math"
	"testing"

	"cubrick/internal/brick"
	"cubrick/internal/randutil"
)

// BenchmarkBuildSel is buildSel's cost per row of one partially covered
// batch, by filter shape — one materialized predicate; runs and one
// materialized predicate; dictionary codes and two materialized
// predicates — at 256 and 4 096 rows and 50% / 5% selectivity, each
// predicate accepting an equal share so the shares multiply to it.
func BenchmarkBuildSel(b *testing.B) {
	for _, shape := range []struct {
		name              string
		runs, codes, mats int
	}{{"mat", 0, 0, 1}, {"runs+mat", 1, 0, 1}, {"codes+mat2", 0, 1, 2}} {
		for _, rows := range []int{256, 4096} {
			for _, sel := range []float64{0.5, 0.05} {
				b.Run(fmt.Sprintf("%s/rows=%d/sel=%g", shape.name, rows, sel), func(b *testing.B) {
					rnd := randutil.New(int64(rows))
					k := shape.runs + shape.codes + shape.mats
					// Values are uniform over [0, 1000) and every predicate
					// accepts [0, hi].
					hi := uint32(1000*math.Pow(sel, 1/float64(k))) - 1
					batch := &brick.Batch{Rows: rows, Dims: make([][]uint32, k), DimRuns: make([][]brick.Run, k),
						DimCodes: make([][]uint32, k), DimDict: make([][]uint32, k)}
					c := &compiled{}
					bounds := make([][2]uint32, k)
					for d := 0; d < k; d++ {
						bounds[d] = [2]uint32{0, 999}
						c.filterDims = append(c.filterDims, filterDim{idx: d, hi: hi})
						switch {
						case d < shape.runs: // runs of eight rows
							for r := 0; r < rows; r += 8 {
								batch.DimRuns[d] = append(batch.DimRuns[d], brick.Run{Value: uint32(rnd.Intn(1000)), Length: 8})
							}
						case d < shape.runs+shape.codes: // the dictionary 0, 10, …, 990
							for v := uint32(0); v < 1000; v += 10 {
								batch.DimDict[d] = append(batch.DimDict[d], v)
							}
							for r := 0; r < rows; r++ {
								batch.DimCodes[d] = append(batch.DimCodes[d], uint32(rnd.Intn(100)))
							}
						default:
							for r := 0; r < rows; r++ {
								batch.Dims[d] = append(batch.Dims[d], uint32(rnd.Intn(1000)))
							}
						}
					}
					es := &encScratch{}
					var st ScanStats
					out := make([]int32, 0, rows)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						out, _ = c.buildSel(batch, bounds, out[:0], es, &st)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
					b.ReportMetric(float64(len(out))/float64(rows), "selected")
				})
			}
		}
	}
}
