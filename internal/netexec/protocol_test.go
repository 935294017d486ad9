package netexec

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cubrick/internal/admission"
	"cubrick/internal/engine"
	"cubrick/internal/partition"
)

// TestProtocolRoundTrip: what the coordinator stamps the worker parses
// back, for every combination of options, and the epochs a response
// carries parse back exact; a missing or unparsable epoch header, or one
// whose count is not the call's partition count, is absent.
func TestProtocolRoundTrip(t *testing.T) {
	for bits := 0; bits < 1<<2; bits++ {
		on := func(b int) bool { return bits&(1<<b) != 0 }
		opts := partialOpts{noCache: on(1)}
		if on(0) {
			opts.priority = -7
		}
		h := make(http.Header)
		opts.stamp(h)
		if got := parsePartialOpts(h); got != opts {
			t.Fatalf("opts %+v came back as %+v (headers %v)", opts, got, h)
		}
	}

	maxEpoch := strconv.FormatUint(math.MaxUint64, 10)
	for _, c := range []struct {
		header string
		n      int
		want   []uint64
	}{
		{"", 1, nil},
		{"0", 1, []uint64{0}},
		{maxEpoch, 1, []uint64{math.MaxUint64}},
		{"-1", 1, nil},
		{"x", 1, nil},
		{"3,4", 2, []uint64{3, 4}},
		{"1," + maxEpoch, 2, []uint64{1, math.MaxUint64}},
		{maxEpoch + "0", 1, nil}, // overflows
		// A count other than the call's partition count.
		{"3,4", 1, nil},
		{"3", 2, nil},
		{"3,4,5", 2, nil},
		// An empty element.
		{"3,", 2, nil},
		{",4", 2, nil},
		{"3,,4", 3, nil},
		{",", 2, nil},
		// Junk.
		{"3,x", 2, nil},
		{"3, 4", 2, nil},
		{"3;4", 2, nil},
	} {
		h := make(http.Header)
		if c.header != "" {
			h.Set(HeaderEpoch, c.header)
		}
		if got := epochsFromHeader(h, c.n); !slices.Equal(got, c.want) || (got == nil) != (c.want == nil) {
			t.Fatalf("epoch header %q for %d partitions came back as %v, want %v", c.header, c.n, got, c.want)
		}
		if c.want != nil {
			if got := formatEpochs(c.want); got != c.header {
				t.Fatalf("epochs %v written as %q, want %q", c.want, got, c.header)
			}
		}
	}
	// The single-epoch header of /loadbin and the transfer endpoints.
	for _, c := range []struct {
		header string
		epoch  uint64
		ok     bool
	}{
		{"", 0, false},
		{"0", 0, true},
		{maxEpoch, math.MaxUint64, true},
		{"-1", 0, false},
		{"1,2", 0, false},
	} {
		h := make(http.Header)
		if c.header != "" {
			h.Set(HeaderEpoch, c.header)
		}
		if e, ok := epochFromHeader(h); e != c.epoch || ok != c.ok {
			t.Fatalf("epoch header %q came back as %d, %v", c.header, e, ok)
		}
	}
}

// TestPartialBody: a body built around a query marshalled once is the
// body encoding/json writes for the request, whatever the partition names
// hold and however many there are.
func TestPartialBody(t *testing.T) {
	queries := []*engine.Query{
		{Aggregates: []engine.Aggregate{{Func: engine.Count}}},
		{Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value", Alias: "<t>&"}}, GroupBy: []string{"app", "kind"},
			Filter: map[string][2]uint32{"ds": {3, 9}, "app": {0, 1}}, OrderBy: "<t>&", Desc: true, Limit: 10,
			Having: []engine.HavingCond{{Column: "<t>&", Op: ">", Value: 1.5e-7}}},
	}
	names := []string{"t#0", "wide#15", `q"uo\te`, "<a>&b", "é\u2028\x01"}
	lists := [][]string{names}
	for _, name := range names {
		lists = append(lists, []string{name})
	}
	for _, parts := range lists {
		for _, q := range queries {
			query, err := json.Marshal(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(partialRequest{Partitions: parts, Query: *q})
			if err != nil {
				t.Fatal(err)
			}
			got, err := partialBody(parts, query)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("partitions %q:\n got %s\nwant %s", parts, got, want)
			}
		}
	}
}

// wireLog records every /partial exchange through it, headers and bodies,
// in front of one worker.
type wireLog struct {
	worker http.Handler
	mu     sync.Mutex
	seen   []string
}

func (l *wireLog) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(body))
	rec := httptest.NewRecorder()
	l.worker.ServeHTTP(rec, r)
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	w.Write(rec.Body.Bytes())

	headers := func(h http.Header) string {
		var out []string
		for k, v := range h {
			if strings.HasPrefix(k, "X-Cubrick-") || k == "Content-Type" {
				out = append(out, k+": "+strings.Join(v, ","))
			}
		}
		sort.Strings(out)
		return strings.Join(out, "\n")
	}
	if r.URL.Path != "/partial" {
		return
	}
	l.mu.Lock()
	l.seen = append(l.seen, fmt.Sprintf("%s %s\n%s\n%s\n-> %d\n%s\n%s\n", r.Method, r.URL.Path, headers(r.Header), body,
		rec.Code, headers(rec.Header()), hex.EncodeToString(rec.Body.Bytes())))
	l.mu.Unlock()
}

// TestPartialWireGolden pins the /partial exchange byte for byte — request
// headers and body, response headers and blob — for a plain call carrying
// every per-query option, and for a call naming two partitions of one
// host: one body listing both, one X-Cubrick-Epoch entry per partition in
// request order, one blob the worker merged. The goldens were re-recorded
// on purpose when the body's partition became a partition list, when the
// X-Cubrick-Fold header left with shared-scan folding, and when the
// X-Cubrick-Tenant header left with the per-tenant quota; benchkit's
// proxy parses and replays this request. It also pins that a worker
// ignores the X-Cubrick-TopK header of a coordinator from before
// top-k pushdown was removed: the full partial, blob byte for byte, with
// no top-k response header.
func TestPartialWireGolden(t *testing.T) {
	w0 := NewWorker(partition.Config{})
	log := &wireLog{worker: w0.Handler()}
	srv0 := httptest.NewServer(log)
	defer srv0.Close()
	cl0 := &Client{BaseURL: srv0.URL}
	for _, part := range []string{"t#0", "t#2"} {
		if err := cl0.CreatePartition(context.Background(), part, testSchema()); err != nil {
			t.Fatal(err)
		}
	}
	t1, cl1, stop1 := httpWorker(t, "t#1")
	defer stop1()
	loadRows(t, cl0, "t#0", nil, [][3]float64{{0, 1, 100}, {1, 2, 5}, {2, 3, 10}})
	loadRows(t, cl1, "t#1", nil, [][3]float64{{0, 2, 90}, {1, 4, 8}})
	// Two loads: t#2 is at epoch 2 where t#0 is at 1.
	loadRows(t, cl0, "t#2", nil, [][3]float64{{0, 2, 7}})
	loadRows(t, cl0, "t#2", nil, [][3]float64{{3, 5, 1}})
	targets := []Target{{URL: srv0.URL, Partition: "t#0"}, t1}

	ctx := admission.WithMeta(WithCacheBypass(context.Background()), admission.Meta{Priority: 3})
	plain := &engine.Query{
		Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value", Alias: "total"}, {Func: engine.Count}},
		Filter:     map[string][2]uint32{"ds": {0, 1}},
	}
	if _, err := (&Coordinator{}).Query(ctx, targets, plain); err != nil {
		t.Fatal(err)
	}

	topk := &engine.Query{
		Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value", Alias: "total"}},
		GroupBy:    []string{"app"},
		OrderBy:    "total",
		Desc:       true,
		Limit:      1,
	}
	body, err := json.Marshal(partialRequest{Partitions: []string{"t#0"}, Query: *topk})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv0.URL+"/partial", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Cubrick-TopK", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Two partitions on one host: one call, merged on the worker.
	colocated := []Target{{URL: srv0.URL, Partition: "t#0"}, {URL: srv0.URL, Partition: "t#2"}}
	res, err := (&Coordinator{}).Query(context.Background(), colocated, topk)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != 1 || res.Rows[0][1] != 100 {
		t.Fatalf("co-located top app = %v, want app 1 at 100", res.Rows)
	}

	if len(log.seen) != 3 {
		t.Fatalf("%d /partial exchanges at the first worker, want 3:\n%s", len(log.seen), strings.Join(log.seen, "\n"))
	}
	for i, want := range []struct{ name, golden string }{
		{"plain", partialGoldenPlain},
		// A partial's group records come in its slab order, so the blob is
		// pinned too: it is the one received, and it holds every group of t#0.
		{"legacy top-k", partialGoldenLegacyTopK},
		// t#0's groups (apps 1, 2, 3) in slab order, then t#2's new app 5;
		// app 2 is summed across both partitions.
		{"two-partition", partialGoldenTwoPartitions},
	} {
		if log.seen[i] != want.golden {
			t.Errorf("%s exchange\n--- got ---\n%s--- want ---\n%s", want.name, log.seen[i], want.golden)
		}
	}
	if got := hex.EncodeToString(blob) + "\n"; !strings.HasSuffix(partialGoldenLegacyTopK, "\n"+got) {
		t.Errorf("legacy top-k blob received %s", got)
	}
	p, err := engine.UnmarshalPartial(topk, blob)
	if err != nil {
		t.Fatal(err)
	}
	if p.Groups() != 3 {
		t.Fatalf("legacy top-k request got %d groups, want all 3", p.Groups())
	}
}

const partialGoldenPlain = `POST /partial
Content-Type: application/json
X-Cubrick-Cache: off
X-Cubrick-Priority: 3
{"partitions":["t#0"],"query":{"Aggregates":[{"Func":0,"Metric":"value","Alias":"total"},{"Func":1,"Metric":"","Alias":""}],"GroupBy":null,"Filter":{"ds":[0,1]},"OrderBy":"","Desc":false,"Limit":0,"Having":null}}
-> 200
Content-Type: application/octet-stream
X-Cubrick-Epoch: 1
52504243020100000002010000000000405a40020000000000001440000000000000594000000000000000004002000000000000f03f000000000000f03f00
`

const partialGoldenLegacyTopK = `POST /partial
Content-Type: application/json
X-Cubrick-Topk: 1
{"partitions":["t#0"],"query":{"Aggregates":[{"Func":0,"Metric":"value","Alias":"total"}],"GroupBy":["app"],"Filter":null,"OrderBy":"total","Desc":true,"Limit":1,"Having":null}}
-> 200
Content-Type: application/octet-stream
X-Cubrick-Epoch: 1
5250424303010000010103010000000000000000005940010000000000005940000000000000594000020000000000000000001440010000000000001440000000000000144000030000000000000000002440010000000000002440000000000000244000
`

const partialGoldenTwoPartitions = `POST /partial
Content-Type: application/json
{"partitions":["t#0","t#2"],"query":{"Aggregates":[{"Func":0,"Metric":"value","Alias":"total"}],"GroupBy":["app"],"Filter":null,"OrderBy":"total","Desc":true,"Limit":1,"Having":null}}
-> 200
Content-Type: application/octet-stream
X-Cubrick-Epoch: 1,2
52504243050300000101040100000000000000000059400100000000000059400000000000005940000200000000000000000028400200000000000014400000000000001c400003000000000000000000244001000000000000244000000000000024400005000000000000000000f03f01000000000000f03f000000000000f03f00
`
