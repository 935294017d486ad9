package benchkit

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

const (
	numClients = 2 // closed-loop query clients, one connection each

	loadBatch = 20_000 // rows per POST /load while filling a table
	// setupRepeats is how many times an untraced run sets a rig up;
	// setup_s is the median and the last rig is the one measured.
	setupRepeats = 3

	// maxIngestBatches bounds the ingest stream generated for a window;
	// a window that used them all just stops ingesting.
	maxIngestBatches = 128

	oracleEvery = 50   // one reply in this many is recomputed by the oracle
	minSamples  = 1000 // below this a window's p95 is unresolved

	// The replies of a window, in the order they arrived, are cut into
	// blocks of equal count — windowBlocks of them, or one per ingest batch
	// on a workload that ingests, so that every block holds the same work
	// — and the end-to-end metrics are computed over the third of the
	// blocks that took the least time. Other tenants of the host slow the
	// machine in bursts of seconds (measured: a pure CPU loop varies by 7%
	// between 12 s blocks, and by 40% between half seconds); the noise
	// only ever adds time, so the least disturbed third of the window
	// repeats far better than its whole or its median block. What the
	// choice hides is a stall of the system itself that recurs less than
	// once per block; client.query_p99_ms, over every sample, keeps that
	// visible.
	windowBlocks = 12
	keepOneIn    = 3
)

// Options selects one run.
type Options struct {
	Workload *Workload
	Seed     int64
	Seconds  float64
	Trace    bool
	Log      io.Writer // progress and per-metric lines
}

// Report is one run's outcome.
type Report struct {
	Correct   bool
	Attempted int
	Failed    int
	Samples   int                // query replies in the measured window
	Metrics   map[string]float64 // end-to-end without Trace, per-layer with
}

// session is the state one run shares between its rigs.
type session struct {
	Options
	work   string // <root>/.bench_build: binaries, run directories, traces
	binDir string
	dir    string // this run's directory: the children's logs

	rows       Rows // the table's rows, then the ingest batches'
	loadBodies [][]byte
	// Ingest batches are generated up front, appended to rows after the
	// static ones: batch i is rows [ingestEnd[i-1], ingestEnd[i]).
	ingestBodies [][]byte
	ingestEnd    []int
}

// Run executes one benchmark run: build, set up, measure, check.
func Run(ctx context.Context, o Options) (*Report, error) {
	root, err := FindRoot()
	if err != nil {
		return nil, err
	}
	work := filepath.Join(root, ".bench_build")
	s := &session{Options: o, work: work, binDir: filepath.Join(work, "bin")}
	buildStart := time.Now()
	if err := Build(root, s.binDir); err != nil {
		return nil, err
	}
	fmt.Fprintf(o.Log, "%s build_s %.3f s 1\n", o.Workload.Name, time.Since(buildStart).Seconds())
	if s.dir, err = os.MkdirTemp(work, "run-"); err != nil {
		return nil, err
	}
	s.generate()
	rep, err := s.run(ctx)
	if err == nil && rep.Correct {
		os.RemoveAll(s.dir)
	} else {
		fmt.Fprintf(o.Log, "%s the children's logs are kept in %s\n", o.Workload.Name, s.dir)
	}
	return rep, err
}

// generate draws the table's rows and the ingest stream from the seed and
// encodes the request bodies, so that set-up time is the system's, not
// the generator's.
func (s *session) generate() {
	w := s.Workload
	GenRows(&s.rows, s.Seed, w.Rows)
	for lo := 0; lo < w.Rows; lo += loadBatch {
		s.loadBodies = append(s.loadBodies, loadBody(w.Table, &s.rows, lo, min(lo+loadBatch, w.Rows)))
	}
	if w.IngestEvery == 0 {
		return
	}
	g := newRowGen(s.Seed ^ 0x5eed)
	for i := 0; i < maxIngestBatches; i++ {
		lo := s.rows.Len()
		for j := 0; j < w.IngestRows; j++ {
			s.rows.add(g.ingested())
		}
		s.ingestBodies = append(s.ingestBodies, loadBody(w.Table, &s.rows, lo, s.rows.Len()))
		s.ingestEnd = append(s.ingestEnd, s.rows.Len())
	}
}

// loadBody encodes rows [lo, hi) as a POST /load body.
func loadBody(table string, rows *Rows, lo, hi int) []byte {
	b := make([]byte, 0, 64*(hi-lo))
	b = append(b, `{"table":`...)
	b = strconv.AppendQuote(b, table)
	b = append(b, `,"rows":[`...)
	for i := lo; i < hi; i++ {
		if i > lo {
			b = append(b, ',')
		}
		b = append(b, `{"dims":[`...)
		for d := range rows.Dims {
			if d > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, uint64(rows.Dims[d][i]), 10)
		}
		b = append(b, `],"metrics":[`...)
		for m := range rows.Metrics {
			if m > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, rows.Metrics[m][i], 'g', -1, 64)
		}
		b = append(b, `]}`...)
	}
	return append(b, `]}`...)
}

func (s *session) run(ctx context.Context) (*Report, error) {
	if s.Trace {
		return s.runTraced(ctx)
	}
	var rig *Rig
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if rig != nil {
			rig.Stop()
		}
		var d time.Duration
		var err error
		if rig, d, err = s.setup(ctx, s.Workload.Faults); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer rig.Stop()
	win, err := s.window(ctx, rig, s.Seconds)
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, rig.Logs())
	}
	rep := win.report()
	p50, p95, qps := win.best()
	rep.Metrics = map[string]float64{
		"query_p50_ms": p50,
		"query_p95_ms": p95,
		"qps":          qps,
		"setup_s":      Median(setups),
	}
	return rep, nil
}

// setup starts a rig and brings it to the measured state: table created,
// rows loaded, compaction settled, caches and connection pools warm. The
// returned time is the workload's setup_s sample.
func (s *session) setup(ctx context.Context, proxied bool) (*Rig, time.Duration, error) {
	start := time.Now()
	w := s.Workload
	var faults *FaultPlan
	if w.Faults {
		faults = NewFaultPlan(s.Seed)
	}
	rig, err := StartRig(s.binDir, s.dir, w.Replication, proxied, faults)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*Rig, time.Duration, error) {
		err = fmt.Errorf("%s set-up: %w\n%s", w.Name, err, rig.Logs())
		rig.Stop()
		return nil, 0, err
	}
	if err := rig.expect(ctx, "/tables", tableBody(w), http.StatusCreated); err != nil {
		return fail(err)
	}
	started := time.Since(start)
	for _, body := range s.loadBodies {
		if err := rig.expect(ctx, "/load", body, http.StatusOK); err != nil {
			return fail(err)
		}
	}
	loaded := time.Since(start)
	if err := rig.settle(ctx); err != nil {
		return fail(err)
	}
	settled := time.Since(start)
	var wg sync.WaitGroup
	errs := make([]error, numClients)
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(rig.coordinator.url)
			defer cl.close()
			gen := w.gen(w, s.Seed, -1-c)
			for i := 0; i < w.Warmup && errs[c] == nil; i++ {
				q := gen()
				if sp, reply := cl.query(ctx, &q); sp.Status != http.StatusOK {
					errs[c] = fmt.Errorf("warm-up query %q: status %d: %.300s", q.CQL(), sp.Status, reply)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fail(err)
		}
	}
	total := time.Since(start)
	fmt.Fprintf(s.Log, "%s set-up %.3f s: start %.3f load %.3f settle %.3f warm-up %.3f\n", w.Name, total.Seconds(),
		started.Seconds(), (loaded - started).Seconds(), (settled - loaded).Seconds(), (total - settled).Seconds())
	return rig, total, nil
}

func tableBody(w *Workload) []byte {
	type dim struct {
		Name    string `json:"name"`
		Max     uint32 `json:"max"`
		Buckets uint32 `json:"buckets"`
	}
	type metric struct {
		Name string `json:"name"`
	}
	var req struct {
		Name       string `json:"name"`
		Partitions int    `json:"partitions"`
		Schema     struct {
			Dimensions []dim    `json:"dimensions"`
			Metrics    []metric `json:"metrics"`
		} `json:"schema"`
	}
	req.Name, req.Partitions = w.Table, w.Partitions
	for d := range dimNames {
		req.Schema.Dimensions = append(req.Schema.Dimensions, dim{dimNames[d], dimMax[d], dimBuckets[d]})
	}
	for _, m := range metricNames {
		req.Schema.Metrics = append(req.Schema.Metrics, metric{m})
	}
	b, _ := json.Marshal(req) // plain structs cannot fail to marshal
	return b
}

// expect posts to the coordinator and demands a status.
func (r *Rig) expect(ctx context.Context, path string, body []byte, want int) error {
	status, reply, err := r.post(ctx, path, body)
	if err != nil {
		return err
	}
	if status != want {
		return fmt.Errorf("POST %s: status %d: %s", path, status, bytes.TrimSpace(reply))
	}
	return nil
}

// settle waits until background compaction has nothing left to do: the
// workers' encode and evict transition counts are non-zero and have not
// moved for settlePolls polls. Sparse bricks cool before dense ones, so
// the counts pause in between; at the workers' decay (see workerFlags) and
// the tables' row distribution the longest pause is about 0.35 s, and the
// wait must outlast it.
func (r *Rig) settle(ctx context.Context) error {
	const (
		poll        = 2 * compactInterval
		settlePolls = 3
	)
	deadline := time.Now().Add(60 * time.Second)
	last, same := -1.0, 0
	for time.Now().Before(deadline) {
		m, err := r.workerMetrics()
		if err != nil {
			return err
		}
		cur := m["brick_compact_encoded"] + m["brick_compact_evicted"]
		if cur > 0 && cur == last {
			if same++; same == settlePolls {
				return nil
			}
		} else {
			same = 0
		}
		last = cur
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(poll):
		}
	}
	return fmt.Errorf("compaction did not settle in 60s")
}

// client is one closed-loop query client with its own connection.
type client struct {
	url  string
	http *http.Client
	buf  bytes.Buffer
}

func newClient(coordinator string) *client {
	return &client{url: coordinator + "/query", http: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// query posts q and returns its span and the reply body, which is only
// valid until the next call. A transport error leaves Status 0 and its
// text as the body.
func (c *client) query(ctx context.Context, q *Query) (Span, []byte) {
	body := strconv.AppendQuote([]byte(`{"cql":`), q.CQL())
	body = append(body, '}')
	sp := Span{Name: "query", ReqBytes: int64(len(body)), Start: now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(body))
	if err == nil {
		var resp *http.Response
		if resp, err = c.http.Do(req); err == nil {
			c.buf.Reset()
			_, err = c.buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if err == nil {
				sp.Status = resp.StatusCode
				sp.Trace = resp.Header.Get(traceHeader)
			}
		}
	}
	sp.End = now()
	if err != nil {
		c.buf.Reset()
		c.buf.WriteString(err.Error())
	}
	sp.RespBytes = int64(c.buf.Len())
	return sp, c.buf.Bytes()
}

// fullCoverage reports whether a /query reply says every partition
// contributed. Only the head of the body is looked at: replies can be
// megabytes and the client must not become the bottleneck.
func fullCoverage(reply []byte) bool {
	const key = `"coverage":`
	i := bytes.Index(reply, []byte(key))
	if i < 0 {
		return false
	}
	rest := reply[i+len(key):]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return false
	}
	v, err := strconv.ParseFloat(string(bytes.TrimSpace(rest[:end])), 64)
	return err == nil && v == 1
}

// check is one reply kept for the oracle, with the row-count snapshots
// bracketing the query.
type check struct {
	q        Query
	reply    []byte
	nLo, nHi int
}

// windowResult is what one measured window produced.
type windowResult struct {
	s       *session
	start   int64         // when the window opened, as spans count time
	elapsed time.Duration // the window plus the last replies' overhang
	queries []Span        // every /query issued, in no particular order
	checks  []check
	problem []string // failed operations and oracle mismatches, capped

	failed       int
	ingestMS     []float64 // due time to acknowledgement, per batch
	latenessMS   []float64 // due time to send, per batch
	ingestFailed int
}

func (w *windowResult) fail(format string, args ...interface{}) {
	w.failed++
	if len(w.problem) < 10 {
		w.problem = append(w.problem, fmt.Sprintf(format, args...))
	}
}

func (w *windowResult) latencies() []float64 {
	out := make([]float64, 0, len(w.queries))
	for _, sp := range w.queries {
		out = append(out, float64(sp.End-sp.Start)/1e6)
	}
	return out
}

// best returns the latency median, latency p95 and correct replies per
// second over the least disturbed third of the window's blocks.
func (w *windowResult) best() (p50, p95, qps float64) {
	spans := append([]Span(nil), w.queries...)
	sort.Slice(spans, func(a, b int) bool { return spans[a].End < spans[b].End })
	size := w.s.Workload.IngestEvery
	if size == 0 {
		size = max(1, len(spans)/windowBlocks)
	}
	type block struct{ first, dur int64 }
	var blocks []block
	prev := w.start
	for i := 0; i+size <= len(spans); i += size {
		end := spans[i+size-1].End
		blocks = append(blocks, block{int64(i), end - prev})
		prev = end
	}
	sort.SliceStable(blocks, func(a, b int) bool { return blocks[a].dur < blocks[b].dur })
	blocks = blocks[:(len(blocks)+keepOneIn-1)/keepOneIn]
	var lat []float64
	var correct, dur float64
	for _, b := range blocks {
		for _, sp := range spans[b.first : b.first+int64(size)] {
			lat = append(lat, float64(sp.End-sp.Start)/1e6)
			if sp.OK {
				correct++
			}
		}
		dur += float64(b.dur)
	}
	return Percentile(lat, 0.50), Percentile(lat, 0.95), correct / (dur / 1e9)
}

func (w *windowResult) report() *Report {
	attempted := len(w.queries) + len(w.ingestMS) + w.ingestFailed
	for _, p := range w.problem {
		fmt.Fprintf(w.s.Log, "%s FAILED %s\n", w.s.Workload.Name, p)
	}
	return &Report{Correct: w.failed == 0, Attempted: attempted, Failed: w.failed, Samples: len(w.queries)}
}

// window drives the workload against a warm rig for the given time, then
// verifies what it saw.
func (s *session) window(ctx context.Context, rig *Rig, seconds float64) (*windowResult, error) {
	w := s.Workload
	res := &windowResult{s: s}
	// Row-count snapshots for the oracle: acked rows are certainly visible
	// to a query sent now, started rows may be.
	var acked, started atomic.Int64
	acked.Store(int64(w.Rows))
	started.Store(int64(w.Rows))

	start := time.Now()
	res.start = now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var clients, wg sync.WaitGroup
	var mu sync.Mutex // guards res while clients run
	// The ingest stream is paced by the replay, not by the clock: a batch
	// falls due with every IngestEvery-th reply, whichever client got it.
	// The window is then the same sequence of queries and invalidations on
	// a fast machine and a slow one, and its hit ratio does not feed back
	// on its speed. due carries each batch's due time to the sender and
	// never blocks a client.
	var replies atomic.Int64
	due := make(chan time.Time, maxIngestBatches)
	for c := 0; c < numClients; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			cl := newClient(rig.coordinator.url)
			defer cl.close()
			gen := w.gen(w, s.Seed, c)
			var spans []Span
			var checks []check
			for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				q := gen()
				nLo := int(acked.Load())
				sp, reply := cl.query(ctx, &q)
				nHi := int(started.Load())
				sp.OK = sp.Status == http.StatusOK && fullCoverage(reply)
				if !sp.OK {
					mu.Lock()
					res.fail("query %q: status %d: %.200s", q.CQL(), sp.Status, reply)
					mu.Unlock()
				} else if i%oracleEvery == 0 {
					checks = append(checks, check{q, append([]byte(nil), reply...), nLo, nHi})
				}
				spans = append(spans, sp)
				if n := replies.Add(1); w.IngestEvery > 0 && n%int64(w.IngestEvery) == 0 && n/int64(w.IngestEvery) <= maxIngestBatches {
					due <- time.Now()
				}
			}
			mu.Lock()
			res.queries = append(res.queries, spans...)
			res.checks = append(res.checks, checks...)
			mu.Unlock()
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for at := range due {
			sent := time.Now()
			started.Store(int64(s.ingestEnd[i]))
			err := rig.expect(ctx, "/load", s.ingestBodies[i], http.StatusOK)
			mu.Lock()
			if err != nil {
				res.ingestFailed++
				res.fail("ingest batch %d: %v", i, err)
			} else {
				acked.Store(int64(s.ingestEnd[i]))
				res.ingestMS = append(res.ingestMS, float64(time.Since(at))/1e6)
				res.latenessMS = append(res.latenessMS, float64(sent.Sub(at))/1e6)
			}
			mu.Unlock()
			i++
		}
	}()
	clients.Wait()
	close(due)
	wg.Wait()
	res.elapsed = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if w.IngestEvery > 0 && res.ingestFailed == 0 {
		q := Query{Table: w.Table, Aggs: []Agg{{Count, 0}}, Filter: fullFilter()}
		cl := newClient(rig.coordinator.url)
		sp, reply := cl.query(ctx, &q)
		cl.close()
		n := int(acked.Load())
		if sp.Status != http.StatusOK {
			res.fail("row count after ingest: status %d: %.200s", sp.Status, reply)
		} else if err := checkReply(&s.rows, n, n, &q, reply); err != nil {
			res.fail("row count after ingest: %v", err)
		}
	}
	for _, c := range res.checks {
		if err := checkReply(&s.rows, c.nLo, c.nHi, &c.q, c.reply); err != nil {
			res.fail("oracle: %q: %v", c.q.CQL(), err)
		}
	}
	return res, nil
}

// checkReply decodes a 200 /query reply and runs the oracle on it.
func checkReply(rows *Rows, nLo, nHi int, q *Query, reply []byte) error {
	var body struct {
		Rows [][]float64 `json:"rows"`
	}
	if err := json.Unmarshal(reply, &body); err != nil {
		return fmt.Errorf("reply: %w", err)
	}
	return Check(rows, nLo, nHi, q, body.Rows)
}

// Env describes where a run happened; printed once per process.
func Env(seed int64) map[string]interface{} {
	sizes := map[string]interface{}{}
	for _, w := range Workloads {
		sizes[w.Name] = map[string]int{
			"rows": w.Rows, "partitions": w.Partitions, "replication": w.Replication, "warmup_queries": w.Warmup,
		}
	}
	return map[string]interface{}{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": commit(), "seed": seed, "clients": numClients, "workers": numWorkers, "sizes": sizes,
	}
}
