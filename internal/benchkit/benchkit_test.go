package benchkit

import (
	"bytes"
	"context"
	"encoding/json"
	"go/parser"
	"go/token"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 30}, {0.2, 10}, {0.21, 20}, {0.95, 50}, {1, 50}, {0.0001, 10},
	} {
		if got := Percentile(xs, tc.q); got != tc.want {
			t.Errorf("Percentile(q=%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if got := Percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("Percentile of nothing = %g, want NaN", got)
	}
	// 1000 samples: p95 is the 950th smallest.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(1000 - i)
	}
	if got := Percentile(big, 0.95); got != 950 {
		t.Errorf("p95 of 1..1000 = %g, want 950", got)
	}
}

func TestUnionAndSelfTime(t *testing.T) {
	ivs := []Interval{{10, 20}, {15, 30}, {40, 50}, {45, 46}, {50, 55}}
	if got := UnionLen(ivs); got != 35 {
		t.Errorf("UnionLen = %d, want 35", got)
	}
	if got := UnionLen(nil); got != 0 {
		t.Errorf("UnionLen(nil) = %d", got)
	}
	// Parent [0,100): children overlap each other and stick out both ends.
	parent := Interval{0, 100}
	kids := []Interval{{-10, 20}, {10, 30}, {60, 70}, {90, 140}, {200, 300}}
	// Covered: [0,30) + [60,70) + [90,100) = 50.
	if got := SelfTime(parent, kids); got != 50 {
		t.Errorf("SelfTime = %d, want 50", got)
	}
	if got := SelfTime(parent, nil); got != 100 {
		t.Errorf("SelfTime without children = %d, want 100", got)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Spread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("Spread(1..10) = %g, want 1", got)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
	ys := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if got, want := Spread(ys), 4.5/3.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Spread = %g, want %g", got, want)
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP x y
# TYPE cache_brick_hit counter
cache_brick_hit 12
netexec_query_latency{quantile="0.5"} 0.007
netexec_query_latency_sum 1.5
query_queue_ms_count 3
`
	got, err := ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"cache_brick_hit": 12, "netexec_query_latency_sum": 1.5, "query_queue_ms_count": 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParseProm = %v, want %v", got, want)
	}
}

func TestParseProcStat(t *testing.T) {
	// utime=150 stime=50 ticks, rss=1000 pages; the name holds ") (".
	line := "42 (a) (b) S 1 42 42 0 -1 4194560 100 0 0 0 150 50 0 0 20 0 5 0 1000 123456789 1000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"
	ps, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if ps.CPU != 2*time.Second {
		t.Errorf("CPU = %v, want 2s", ps.CPU)
	}
	if want := int64(1000 * os.Getpagesize()); ps.RSS != want {
		t.Errorf("RSS = %d, want %d", ps.RSS, want)
	}
	self, err := SampleProc(os.Getpid())
	if err != nil || self.RSS <= 0 {
		t.Errorf("SampleProc(self) = %+v, %v", self, err)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	var a, b, c Rows
	GenRows(&a, 7, 5000)
	GenRows(&b, 7, 5000)
	GenRows(&c, 8, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different rows")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same rows")
	}
	for d := range a.Dims {
		for _, v := range a.Dims[d] {
			if v >= dimMax[d] {
				t.Fatalf("dim %s value %d out of domain", dimNames[d], v)
			}
		}
	}
	for i := range Workloads {
		w := &Workloads[i]
		stream := func(seed int64, c int) string {
			gen := w.gen(w, seed, c)
			var sb strings.Builder
			for i := 0; i < 200; i++ {
				q := gen()
				sb.WriteString(q.CQL())
				sb.WriteByte('\n')
			}
			return sb.String()
		}
		if stream(3, 0) != stream(3, 0) {
			t.Errorf("%s: same seed and client, different queries", w.Name)
		}
		if stream(3, 0) == stream(4, 0) {
			t.Errorf("%s: different seeds, same queries", w.Name)
		}
		if stream(3, 0) == stream(3, 1) {
			t.Errorf("%s: the two clients replay the same stream", w.Name)
		}
		if stream(3, 0) == stream(3, -1) {
			t.Errorf("%s: warm-up and window share a stream", w.Name)
		}
	}
}

func TestCQL(t *testing.T) {
	q := Query{Table: "events", Aggs: []Agg{{Sum, 0}, {Count, 0}, {Avg, 1}}, GroupBy: []int{dimRegion, dimKind}, Filter: fullFilter()}
	q.Filter[dimApp] = [2]uint32{5, 9}
	q.Filter[dimDS] = [2]uint32{3, 77}
	want := "SELECT sum(value), count(*), avg(samples) FROM events WHERE ds BETWEEN 3 AND 77 AND app BETWEEN 5 AND 9 GROUP BY region, kind"
	if got := q.CQL(); got != want {
		t.Errorf("CQL = %q\nwant  %q", got, want)
	}
	top := Query{Table: "events", Aggs: []Agg{{Sum, 0}}, GroupBy: []int{dimApp}, Filter: fullFilter(), TopK: 10}
	want = "SELECT sum(value) FROM events GROUP BY app ORDER BY sum(value) DESC LIMIT 10"
	if got := top.CQL(); got != want {
		t.Errorf("CQL = %q\nwant  %q", got, want)
	}
}

// handRows is six rows small enough to aggregate by hand.
//
//	ds region app kind | value samples
//	 1   0     5   0   |  10    1
//	 2   0     5   1   |  20    2
//	 3   1     6   0   |  30    3
//	 4   1     7   0   |  40    4
//	 5   1     7   1   |  40    5
//	 6   2     8   0   |   5    6
func handRows() *Rows {
	var r Rows
	for _, x := range [][6]float64{
		{1, 0, 5, 0, 10, 1}, {2, 0, 5, 1, 20, 2}, {3, 1, 6, 0, 30, 3},
		{4, 1, 7, 0, 40, 4}, {5, 1, 7, 1, 40, 5}, {6, 2, 8, 0, 5, 6},
	} {
		r.add([numDims]uint32{uint32(x[0]), uint32(x[1]), uint32(x[2]), uint32(x[3])}, [numMetrics]float64{x[4], x[5]})
	}
	return &r
}

func TestOracleHandComputed(t *testing.T) {
	rows := handRows()
	q := Query{Table: "t", Aggs: []Agg{{Sum, 0}, {Count, 0}, {Min, 0}, {Max, 1}, {Avg, 0}}, GroupBy: []int{dimRegion}, Filter: fullFilter()}
	q.Filter[dimDS] = [2]uint32{2, 5} // drops the first and the last row
	good := [][]float64{
		{0, 20, 1, 20, 2, 20},
		{1, 110, 3, 30, 5, 110.0 / 3},
	}
	if err := Check(rows, 6, 6, &q, good); err != nil {
		t.Errorf("correct reply rejected: %v", err)
	}
	for name, bad := range map[string][][]float64{
		"wrong sum":     {{0, 21, 1, 20, 2, 20}, {1, 110, 3, 30, 5, 110.0 / 3}},
		"wrong count":   {{0, 20, 2, 20, 2, 20}, {1, 110, 3, 30, 5, 110.0 / 3}},
		"wrong min":     {{0, 20, 1, 20, 2, 20}, {1, 110, 3, 40, 5, 110.0 / 3}},
		"missing group": {{0, 20, 1, 20, 2, 20}},
		"extra group":   {{0, 20, 1, 20, 2, 20}, {1, 110, 3, 30, 5, 110.0 / 3}, {2, 5, 1, 5, 6, 5}},
		"twice":         {{0, 20, 1, 20, 2, 20}, {0, 20, 1, 20, 2, 20}},
		"short row":     {{0, 20, 1}},
	} {
		if err := Check(rows, 6, 6, &q, bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A sum may differ by rounding, not by more.
	near := [][]float64{{0, 20 * (1 + 1e-12), 1, 20, 2, 20}, {1, 110, 3, 30, 5, 110.0 / 3}}
	if err := Check(rows, 6, 6, &q, near); err != nil {
		t.Errorf("rounding-sized difference rejected: %v", err)
	}
}

func TestOracleTopK(t *testing.T) {
	rows := handRows()
	// sum(value) by app: 5→30, 6→30, 7→80, 8→5. Top 2 is {7} plus either
	// of the tied 5 and 6.
	q := Query{Table: "t", Aggs: []Agg{{Sum, 0}}, GroupBy: []int{dimApp}, Filter: fullFilter(), TopK: 2}
	for _, ok := range [][][]float64{{{7, 80}, {5, 30}}, {{7, 80}, {6, 30}}} {
		if err := Check(rows, 6, 6, &q, ok); err != nil {
			t.Errorf("valid top-2 %v rejected: %v", ok, err)
		}
	}
	for name, bad := range map[string][][]float64{
		"left out the top group": {{5, 30}, {6, 30}},
		"too few":                {{7, 80}},
		"too many":               {{7, 80}, {5, 30}, {6, 30}},
		"wrong value":            {{7, 81}, {5, 30}},
		"beaten group":           {{7, 80}, {8, 5}},
	} {
		if err := Check(rows, 6, 6, &q, bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestOracleUnderIngest(t *testing.T) {
	rows := handRows()
	// The query raced the last two rows: a reply may hold none, either or
	// both of them, and nothing else.
	q := Query{Table: "t", Aggs: []Agg{{Sum, 0}, {Count, 0}, {Max, 1}}, GroupBy: []int{dimRegion}, Filter: fullFilter()}
	for _, ok := range [][][]float64{
		{{0, 30, 2, 2}, {1, 70, 2, 4}},               // neither
		{{0, 30, 2, 2}, {1, 110, 3, 5}},              // row 5 only
		{{0, 30, 2, 2}, {1, 70, 2, 4}, {2, 5, 1, 6}}, // row 6 only
		{{0, 30, 2, 2}, {1, 110, 3, 5}, {2, 5, 1, 6}},
	} {
		if err := Check(rows, 4, 6, &q, ok); err != nil {
			t.Errorf("reply %v rejected: %v", ok, err)
		}
	}
	for name, bad := range map[string][][]float64{
		"lost an acknowledged row": {{0, 10, 1, 1}, {1, 70, 2, 4}},
		"more than was ever sent":  {{0, 30, 2, 2}, {1, 150, 4, 5}},
		"missing an old group":     {{1, 70, 2, 4}},
	} {
		if err := Check(rows, 4, 6, &q, bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	avg := Query{Table: "t", Aggs: []Agg{{Avg, 0}}, Filter: fullFilter()}
	if err := Check(rows, 4, 6, &avg, [][]float64{{25}}); err == nil {
		t.Error("avg under ingest must be refused: it cannot be bounded")
	}
}

func TestFaultPlanRate(t *testing.T) {
	f := NewFaultPlan(11)
	const n = 200_000
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		counts[f.decide(strconv.Itoa(i))]++
	}
	for _, kind := range []string{"fail", "delay"} {
		if got := float64(counts[kind]) / n; math.Abs(got-0.02) > 0.002 {
			t.Errorf("%s rate = %.4f, want 0.02 ± 0.002", kind, got)
		}
	}
	// The same (query, partition) is never struck twice, however often it
	// is retried.
	g := NewFaultPlan(11)
	struck := 0
	for i := 0; i < 10_000; i++ {
		if g.decide("one-key") != "" {
			struck++
		}
	}
	if struck != 1 {
		t.Errorf("one key struck %d times, want exactly 1", struck)
	}
	// Same seed, same schedule.
	a, b := NewFaultPlan(5), NewFaultPlan(5)
	for i := 0; i < 5000; i++ {
		if k := strconv.Itoa(i); a.decide(k) != b.decide(k) {
			t.Fatal("same seed, different fault schedule")
		}
	}
}

func TestProxyRecordsAndInjects(t *testing.T) {
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Cubrick-Epoch", "9")
		w.Write(append([]byte("echo:"), body...))
	}))
	defer worker.Close()
	faults := NewFaultPlan(1)
	faults.FailProb, faults.DelayProb = 1, 0 // strike every first attempt
	px, err := StartProxy(worker.URL, faults)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	call := func(path, trace string) (int, string, http.Header) {
		req, _ := http.NewRequest(http.MethodPost, px.URL+path, strings.NewReader(`{"partition":"p0"}`))
		if trace != "" {
			req.Header.Set(traceHeader, trace)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b), resp.Header
	}
	if status, _, _ := call("/partial", "t1"); status != http.StatusServiceUnavailable {
		t.Errorf("first attempt: status %d, want the injected 503", status)
	}
	status, body, hdr := call("/partial", "t1")
	if status != http.StatusOK || body != `echo:{"partition":"p0"}` || hdr.Get("X-Cubrick-Epoch") != "9" {
		t.Errorf("retry: status %d body %q epoch %q", status, body, hdr.Get("X-Cubrick-Epoch"))
	}
	if status, _, _ := call("/loadbin", ""); status != http.StatusOK {
		t.Errorf("/loadbin must never be struck, got %d", status)
	}
	call("/partial", "") // no trace header: must be counted
	spans, untraced := px.Drain()
	if untraced != 1 {
		t.Errorf("untraced = %d, want 1", untraced)
	}
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	if s := spans[0]; s.Injected != "fail" || s.Status != 503 || s.Trace != "t1" || s.Name != "/partial" {
		t.Errorf("struck span = %+v", s)
	}
	if s := spans[1]; s.Injected != "" || s.Status != 200 || s.ReqBytes != 18 || s.RespBytes != 23 || s.End < s.Start {
		t.Errorf("forwarded span = %+v", s)
	}
	if got := len(px.Captured()); got != 3 {
		t.Errorf("captured %d /partial calls, want 3", got)
	}
	if more, _ := px.Drain(); len(more) != 0 {
		t.Errorf("Drain did not forget: %d spans left", len(more))
	}
}

func TestLayerMetricsFromSpans(t *testing.T) {
	ms := func(x float64) int64 { return int64(x * 1e6) }
	queries := []Span{
		{Trace: "a", Name: "query", Start: ms(0), End: ms(10), Status: 200, OK: true},
		{Trace: "b", Name: "query", Start: ms(10), End: ms(12), Status: 200, OK: true}, // cache hit: no calls
	}
	calls := []Span{
		{Trace: "a", Name: "/partial", Start: ms(1), End: ms(5), Status: 200, ReqBytes: 100, RespBytes: 1000},
		{Trace: "a", Name: "/partial", Start: ms(2), End: ms(8), Status: 200, ReqBytes: 100, RespBytes: 3000},
		{Trace: "a", Name: "/partial", Start: ms(2), End: ms(3), Status: 503, ReqBytes: 100, Injected: "fail"},
		{Trace: "a", Name: "/partial", Start: ms(3), End: ms(4), Cancelled: true, ReqBytes: 100},
		{Trace: "warmup", Name: "/partial", Start: ms(0), End: ms(9), Status: 200}, // not this window's
		{Name: "/loadbin", Start: ms(0), End: ms(2), Status: 200},
	}
	m := layerMetrics(queries, calls, 2)
	want := map[string]float64{
		"worker.partial_ms_p50":                 4,
		"worker.partial_ms_p95":                 6,
		"worker.partial_share":                  7.0 / 12, // [1,8) of query a; nothing of b
		"coordinator.self_ms_p50":               2,        // b: 2 ms, a: 3 ms
		"coordinator.self_ms_p95":               3,
		"coordinator.self_share":                5.0 / 12,
		"netexec.wire.resp_bytes_per_query":     2000,
		"netexec.wire.req_bytes_per_query":      200,
		"netexec.fanout.calls_per_query":        2,
		"netexec.fanout.straggler_ratio":        1.5, // slowest 6 ms over the median 4 ms
		"netexec.fanout.extra_calls_per_query":  2,   // 4 calls where 2 partitions need 2
		"netexec.resilience.failed_calls_ratio": 0.25,
		"netexec.resilience.wasted_call_ratio":  0.25,
		"rescache.hit_ratio":                    0.5,
		"worker.load_ms_p50":                    2,
	}
	for k, w := range want {
		if got := m[k]; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got, w)
		}
	}
	if len(m) != len(want) {
		t.Errorf("layerMetrics returned %d metrics, the test knows %d", len(m), len(want))
	}
}

func TestBestThirdOfBlocks(t *testing.T) {
	// 24 replies, one every 10 ms except that the middle 8 take 30 ms
	// each (a disturbed stretch). Blocks of 2 replies: the best third is
	// undisturbed, so the metrics must read 10 ms and 100 replies/s.
	ms := func(x int64) int64 { return x * 1e6 }
	w := &windowResult{s: &session{Options: Options{Workload: &Workload{}}}, start: ms(100)}
	at := w.start
	for i := 0; i < 24; i++ {
		d := ms(10)
		if i >= 8 && i < 16 {
			d = ms(30)
		}
		w.queries = append(w.queries, Span{Start: at, End: at + d, OK: true})
		at += d
	}
	p50, p95, qps := w.best()
	if p50 != 10 || p95 != 10 || math.Abs(qps-100) > 1e-9 {
		t.Errorf("best() = p50 %v p95 %v qps %v, want 10 10 100", p50, p95, qps)
	}
	// On an ingesting workload a block is one ingest cycle.
	w.s.Workload.IngestEvery = 8
	if p50, _, qps = w.best(); p50 != 10 || math.Abs(qps-100) > 1e-9 {
		t.Errorf("best() with 8-reply cycles = p50 %v qps %v, want 10 100", p50, qps)
	}
}

func TestFullCoverage(t *testing.T) {
	for reply, want := range map[string]bool{
		`{"columns":["a"],"coverage":1,"fanout":2,"rows":[]}`:    true,
		`{"columns":["a"],"coverage":0.75,"fanout":2,"rows":[]}`: false,
		`{"error":"boom"}`: false,
		`{"coverage":1}`:   true,
	} {
		if got := fullCoverage([]byte(reply)); got != want {
			t.Errorf("fullCoverage(%s) = %v, want %v", reply, got, want)
		}
	}
}

// TestStdlibOnly pins the property the whole design rests on: benchkit
// (tests included) and cmd/bench reach the system only through its
// binaries, so no refactor of the system can break or bend the benchmark.
func TestStdlibOnly(t *testing.T) {
	for _, dir := range []string{".", "../../cmd/bench"} {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for name, file := range pkg.Files {
				for _, imp := range file.Imports {
					path, _ := strconv.Unquote(imp.Path.Value)
					if path == "cubrick/internal/benchkit" && dir != "." {
						continue // cmd/bench is a thin main over benchkit
					}
					if first, _, _ := strings.Cut(path, "/"); strings.Contains(first, ".") || first == "cubrick" {
						t.Errorf("%s imports %q: only the standard library is allowed", name, path)
					}
				}
			}
		}
	}
}

// TestBenchmarkJSON keeps the root BENCHMARK.json and the definitions the
// code reports from in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json at the module root")
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if got := spec.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, code has {%s %s}", i, got, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []MetricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, code has %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %s: bound differs from the code's %v", kind, d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, EndToEnd, true)
	check("per_layer", spec.PerLayer, PerLayer, false)
}

// TestSmoke builds the real binaries and drives a miniature dash_replay —
// ingest, rollups, top-k, faults, recording proxies — through a one-second
// window, checking every reply's plumbing rather than any speed. It runs
// without replicas: hedged calls get cancelled, and a cancelled call can
// crash a worker at this commit (see faultGen).
func TestSmoke(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain on PATH")
	}
	root, err := FindRoot()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	binDir := filepath.Join(tmp, "bin")
	if err := Build(root, binDir); err != nil {
		t.Fatal(err)
	}
	mini := Workload{
		Name: "mini", Table: "events", Rows: 20_000, Partitions: 4, Warmup: 20, IngestEvery: 50, IngestRows: 256, Faults: true,
		gen: func(w *Workload, seed int64, c int) queryGen { return dashGen(w.Table, clientRand(seed, c)) },
	}
	var log bytes.Buffer
	s := &session{Options: Options{Workload: &mini, Seed: 1, Seconds: 1, Log: &log}, binDir: binDir, dir: tmp}
	s.generate()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rig, setup, err := s.setup(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Stop()
	for _, px := range rig.proxies {
		px.Drain()
	}
	win, err := s.window(ctx, rig, s.Seconds)
	if err != nil {
		t.Fatalf("%v\n%s", err, rig.Logs())
	}
	rep := win.report()
	if !rep.Correct || rep.Samples == 0 || len(win.checks) == 0 || len(win.ingestMS) == 0 {
		t.Fatalf("correct=%v failed=%d samples=%d oracle checks=%d ingest batches=%d\n%s\n%s",
			rep.Correct, rep.Failed, rep.Samples, len(win.checks), len(win.ingestMS), log.String(), rig.Logs())
	}
	var calls []Span
	for _, px := range rig.proxies {
		spans, untraced := px.Drain()
		if untraced != 0 {
			t.Errorf("%d worker calls arrived without %s", untraced, traceHeader)
		}
		calls = append(calls, spans...)
	}
	m := layerMetrics(win.queries, calls, mini.Partitions)
	if got := m["netexec.fanout.calls_per_query"]; got <= 0 || got > 2*float64(mini.Partitions) {
		t.Errorf("calls_per_query = %v", got)
	}
	if got := m["worker.partial_share"] + m["coordinator.self_share"]; math.Abs(got-1) > 1e-9 {
		t.Errorf("partial share + coordinator self share = %v, want 1", got)
	}
	if m["worker.load_ms_p50"] == Absent {
		t.Error("no /loadbin span recorded for the ingest stream")
	}
	p50, p95, qps := win.best()
	t.Logf("set-up %v, %d queries, p50 %.2f ms, p95 %.2f ms, %.0f q/s, %d oracle checks", setup, rep.Samples, p50, p95, qps, len(win.checks))
}
