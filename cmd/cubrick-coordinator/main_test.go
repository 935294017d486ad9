package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"cubrick/internal/core"
	"cubrick/internal/engine"
	"cubrick/internal/metrics"
	"cubrick/internal/migrate"
	"cubrick/internal/netexec"
	"cubrick/internal/partition"
	"cubrick/internal/zk"
)

func newTestCoordinator(t *testing.T, workers int) *coordServer {
	t.Helper()
	var urls []string
	for i := 0; i < workers; i++ {
		srv := httptest.NewServer(netexec.NewWorker(partition.Config{}).Handler())
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	cluster, err := netexec.NewCluster(urls, 100000, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &coordServer{cluster: cluster, deadline: 30 * time.Second}
}

func post(t *testing.T, h http.HandlerFunc, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	buf, _ := json.Marshal(body)
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf))
	w := httptest.NewRecorder()
	h(w, req)
	return w
}

func TestCoordinatorEndToEnd(t *testing.T) {
	s := newTestCoordinator(t, 4)

	w := post(t, s.tables, "/tables", map[string]interface{}{
		"name":       "events",
		"partitions": 4,
		"schema": map[string]interface{}{
			"dimensions": []map[string]interface{}{
				{"name": "ds", "max": 30, "buckets": 6},
				{"name": "app", "max": 20, "buckets": 4},
			},
			"metrics": []map[string]interface{}{{"name": "value"}},
		},
	})
	if w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}

	rows := make([]map[string]interface{}, 0, 200)
	want := 0.0
	for i := 0; i < 200; i++ {
		rows = append(rows, map[string]interface{}{
			"dims":    []uint32{uint32(i) % 30, uint32(i) % 20},
			"metrics": []float64{float64(i)},
		})
		want += float64(i)
	}
	w = post(t, s.load, "/load", map[string]interface{}{"table": "events", "rows": rows})
	if w.Code != http.StatusOK {
		t.Fatalf("load: %d %s", w.Code, w.Body)
	}

	w = post(t, s.query, "/query", map[string]string{"cql": "SELECT SUM(value) AS total FROM events"})
	if w.Code != http.StatusOK {
		t.Fatalf("query: %d %s", w.Code, w.Body)
	}
	var resp struct {
		Rows   [][]float64 `json:"rows"`
		Fanout int         `json:"fanout"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Rows[0][0] != want {
		t.Fatalf("sum = %v, want %v", resp.Rows[0][0], want)
	}
	if resp.Fanout < 1 || resp.Fanout > 4 {
		t.Fatalf("fanout = %d", resp.Fanout)
	}

	// Health.
	req := httptest.NewRequest(http.MethodGet, "/health", nil)
	rec := httptest.NewRecorder()
	s.health(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("health: %d %s", rec.Code, rec.Body)
	}
	// Table list.
	req = httptest.NewRequest(http.MethodGet, "/tables", nil)
	rec = httptest.NewRecorder()
	s.tables(rec, req)
	var tbls map[string]int
	json.Unmarshal(rec.Body.Bytes(), &tbls)
	if tbls["events"] != 4 {
		t.Fatalf("tables = %v", tbls)
	}
}

func TestCoordinatorErrors(t *testing.T) {
	s := newTestCoordinator(t, 2)
	if w := post(t, s.query, "/query", map[string]string{"cql": "garbage"}); w.Code != http.StatusBadRequest {
		t.Fatalf("bad cql: %d", w.Code)
	}
	if w := post(t, s.query, "/query", map[string]string{"cql": "SELECT COUNT(*) FROM ghost"}); w.Code != http.StatusBadGateway {
		t.Fatalf("unknown table: %d", w.Code)
	}
	if w := post(t, s.query, "/query", map[string]string{"cql": "SELECT COUNT(*) FROM a JOIN b"}); w.Code != http.StatusBadRequest {
		t.Fatalf("join: %d", w.Code)
	}
	if w := post(t, s.load, "/load", map[string]interface{}{"table": "ghost", "rows": []interface{}{}}); w.Code != http.StatusBadRequest {
		t.Fatalf("load unknown: %d", w.Code)
	}
}

// TestFlags pins the flag set: the parsed defaults are the default query
// policy, the retired -topk-overfetch and -fold parse and change nothing,
// and README's table lists each flag with its default, so the
// documentation cannot drift from registerFlags.
func TestFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o := registerFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if o.policy != netexec.DefaultQueryPolicy() {
		t.Fatalf("default policy = %+v, want %+v", o.policy, netexec.DefaultQueryPolicy())
	}
	defaults := *o
	for _, retired := range []string{"-topk-overfetch 4", "-fold on"} {
		if err := fs.Parse(strings.Fields(retired)); err != nil {
			t.Fatal(err)
		}
		if *o != defaults {
			t.Fatalf("%s: options %+v, want the defaults %+v", retired, *o, defaults)
		}
	}
	if err := fs.Parse(strings.Fields("-retries 1 -hedge-quantile 0 -min-coverage 0.5")); err != nil {
		t.Fatal(err)
	}
	want := netexec.DefaultQueryPolicy()
	want.MaxAttempts, want.HedgeQuantile, want.MinCoverage = 1, 0, 0.5
	if o.policy != want {
		t.Fatalf("overridden policy = %+v, want %+v", o.policy, want)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	table := string(readme)
	table = table[strings.Index(table, "| Flag (`cubrick-coordinator`) | Default | Meaning |"):]
	table = table[:strings.Index(table, "\n\n")]
	n := 0
	fs.VisitAll(func(fl *flag.Flag) {
		n++
		def := fl.DefValue
		if def == "" {
			def = `""`
		}
		if row := "| `-" + fl.Name + "` | " + def + " |"; !strings.Contains(table, row) {
			t.Errorf("README.md's coordinator flag table has no row starting %q", row)
		}
	})
	if rows := strings.Count(table, "\n| `-"); rows != n {
		t.Errorf("README.md's coordinator flag table has %d rows for %d flags", rows, n)
	}
}

// TestLoadRacingMoveLosesNoRows: a POST /load that meets a partition fenced
// by an in-flight POST /move retries into the new owner once the flip
// lands, instead of failing with the fence's 503. The joiner holds the
// cutover's row-count check open until the load has been rejected once, so
// the race is certain rather than likely.
func TestLoadRacingMoveLosesNoRows(t *testing.T) {
	reg := metrics.NewRegistry()
	source := netexec.NewWorker(partition.Config{Metrics: reg})
	srcSrv := httptest.NewServer(source.Handler())
	defer srcSrv.Close()
	release := make(chan struct{})
	joiner := netexec.NewWorker(partition.Config{}).Handler()
	joinSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/epoch" {
			<-release
		}
		joiner.ServeHTTP(w, r)
	}))
	defer joinSrv.Close()

	cluster, err := netexec.NewCluster([]string{srcSrv.URL}, 100000, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := &coordServer{cluster: cluster, deadline: 30 * time.Second}
	s.migrator = &migrate.Driver{ZK: zk.NewStore(nil), Router: cluster,
		Config: migrate.Config{DualReadWindow: 10 * time.Millisecond}}
	if w := post(t, s.tables, "/tables", map[string]interface{}{
		"name": "events", "partitions": 1,
		"schema": map[string]interface{}{
			"dimensions": []map[string]interface{}{{"name": "ds", "max": 30, "buckets": 6}},
			"metrics":    []map[string]interface{}{{"name": "value"}},
		},
	}); w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	batch := func(n int) map[string]interface{} {
		rows := make([]map[string]interface{}, n)
		for i := range rows {
			rows[i] = map[string]interface{}{"dims": []uint32{uint32(i) % 30}, "metrics": []float64{1}}
		}
		return map[string]interface{}{"table": "events", "rows": rows}
	}
	if w := post(t, s.load, "/load", batch(100)); w.Code != http.StatusOK {
		t.Fatalf("load: %d %s", w.Code, w.Body)
	}

	// wait polls cond; on timeout it lets the migration go so the test
	// fails instead of hanging.
	wait := func(what string, cond func() bool) {
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				close(release)
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	moved := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		moved <- post(t, s.move, "/move", map[string]interface{}{"table": "events", "partition": 0, "target": joinSrv.URL})
	}()
	part := core.PartitionName("events", 0)
	wait("the cutover's fence", func() bool { return source.IsFenced(part) })
	loaded := make(chan *httptest.ResponseRecorder, 1)
	go func() { loaded <- post(t, s.load, "/load", batch(50)) }()
	wait("the load to meet the fence", func() bool { return reg.CounterValues()["worker.load.fenced_rejects"] > 0 })
	close(release)

	if w := <-moved; w.Code != http.StatusOK {
		t.Fatalf("move: %d %s", w.Code, w.Body)
	}
	if w := <-loaded; w.Code != http.StatusOK {
		t.Fatalf("load racing the move: %d %s", w.Code, w.Body)
	}
	w := post(t, s.query, "/query", map[string]string{"cql": "SELECT COUNT(*) AS n FROM events"})
	if w.Code != http.StatusOK {
		t.Fatalf("query: %d %s", w.Code, w.Body)
	}
	var resp struct {
		Rows [][]float64 `json:"rows"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Rows[0][0] != 150 {
		t.Fatalf("count after the move = %v, want 150", resp.Rows[0][0])
	}
}

// queryResponse is the /query success reply as a map: the reference
// TestQueryResponseBytes checks appendQueryReply's bytes against.
func queryResponse(res *engine.Result, fanout int) map[string]interface{} {
	resp := map[string]interface{}{
		"columns":     res.Columns,
		"rows":        res.Rows,
		"rowsScanned": res.RowsScanned,
		"fanout":      fanout,
		"coverage":    res.Coverage,
	}
	if len(res.MissingPartitions) > 0 {
		resp["missingPartitions"] = res.MissingPartitions
	}
	return resp
}

// TestQueryResponseBytes: the /query reply is byte for byte what
// encoding/json writes for the reply map, over random results with the
// float and string cases encoding/json formats specially — the edges of
// the integer shortcut among them (±(2^53−1), 2^52−0.5, the largest
// non-integral float64, and integral values above 2^53); a non-finite
// value answers 500 with an error naming it.
func TestQueryResponseBytes(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, -2.5, 1e-7, -1e-7, 1.5e-6, 1e-6, 9.99e20, 1e21, -1e21, 1.5e300,
		1 << 53, 1<<53 - 2, 1<<53 + 2, -(1<<53 + 2), 5e-324, 2.2250738585072014e-308 / 3, math.MaxFloat64, 123456.789,
		1<<53 - 1, -(1<<53 - 1), 1<<52 - 0.5, 1e20, -1e20, 1e15}
	names := []string{"app", "sum(value)", "count(*)", "<b>&", "a<b", "x>y", `q"u\o`, "tab\tnl\n", "é", "\u2028", "\x7f", "\xff", ""}
	rnd := rand.New(rand.NewSource(7))
	value := func() float64 {
		if rnd.Intn(2) == 0 {
			return floats[rnd.Intn(len(floats))]
		}
		return rnd.NormFloat64() * math.Pow(10, float64(rnd.Intn(40)-20))
	}
	strs := func() []string {
		if rnd.Intn(4) == 0 {
			return nil
		}
		ss := make([]string, rnd.Intn(4))
		for i := range ss {
			ss[i] = names[rnd.Intn(len(names))]
		}
		return ss
	}
	for trial := 0; trial < 500; trial++ {
		res := &engine.Result{Columns: strs(), Coverage: value(), RowsScanned: rnd.Int63n(1 << 40), MissingPartitions: strs()}
		switch rnd.Intn(4) {
		case 0: // nil rows
		case 1:
			res.Rows = [][]float64{}
		default:
			res.Rows = make([][]float64, rnd.Intn(6))
			for i := range res.Rows {
				if rnd.Intn(8) > 0 {
					res.Rows[i] = make([]float64, rnd.Intn(5))
					for j := range res.Rows[i] {
						res.Rows[i][j] = value()
					}
				}
			}
		}
		fanout := rnd.Intn(64)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(queryResponse(res, fanout)); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		writeQueryResponse(rec, res, fanout)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) ||
			rec.Header().Get("Content-Length") != strconv.Itoa(want.Len()) || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("trial %d: the handler wrote %d %v\n got %s\nwant %s", trial, rec.Code, rec.Header(), rec.Body.Bytes(), want.Bytes())
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, res := range []*engine.Result{
			{Columns: []string{"x"}, Rows: [][]float64{{1, bad}}, Coverage: 1},
			{Columns: []string{"x"}, Coverage: bad},
		} {
			rec := httptest.NewRecorder()
			writeQueryResponse(rec, res, 1)
			var body struct{ Error string }
			if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusInternalServerError || err != nil ||
				!strings.Contains(body.Error, strconv.FormatFloat(bad, 'g', -1, 64)) {
				t.Fatalf("%v: wrote %d %q, want 500 with an error naming the value", bad, rec.Code, rec.Body)
			}
		}
	}
}

// discardWriter is an http.ResponseWriter that keeps nothing of the body,
// so a write costs only what the handler allocates.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w discardWriter) WriteHeader(int)             {}

// wideResult is a result of rows rows × 4 integral columns, a
// wide_fanout-shaped GROUP BY app, kind answer with sum and count.
func wideResult(rows int) *engine.Result {
	res := &engine.Result{Columns: []string{"app", "kind", "sum(value)", "count(*)"}, Coverage: 1, RowsScanned: 64000}
	for i := 0; i < rows; i++ {
		res.Rows = append(res.Rows, []float64{float64(i / 3), float64(i % 3), float64(i * 4711), float64(40 + i%9)})
	}
	return res
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestQueryResponseAllocsFlat is the allocation check check.sh runs on the
// /query reply: it is appended into a pooled buffer, so a 1 500-row reply
// allocates what a 15-row one does.
func TestQueryResponseAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race: sync.Pool drops items at random")
	}
	w := discardWriter{h: http.Header{}}
	allocs := func(rows int) float64 {
		res := wideResult(rows)
		return testing.AllocsPerRun(100, func() { writeQueryResponse(w, res, 2) })
	}
	small, large := allocs(15), allocs(1500)
	t.Logf("%.0f allocs per 15-row reply, %.0f per 1 500-row reply", small, large)
	if large != small {
		t.Fatalf("a 1 500-row reply allocates %.0f times, a 15-row one %.0f: the reply allocates per row", large, small)
	}
}

// BenchmarkWriteQueryResponseWide measures writing a 1 500-row reply of
// 4 integral columns (run with -benchmem).
func BenchmarkWriteQueryResponseWide(b *testing.B) {
	w, res := discardWriter{h: http.Header{}}, wideResult(1500)
	b.ReportAllocs()
	for b.Loop() {
		writeQueryResponse(w, res, 2)
	}
}
