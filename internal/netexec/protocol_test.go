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
// back, for every combination of options, and the epoch a response
// carries parses back exact; a missing or unparsable epoch is absent.
func TestProtocolRoundTrip(t *testing.T) {
	for bits := 0; bits < 1<<4; bits++ {
		on := func(b int) bool { return bits&(1<<b) != 0 }
		opts := partialOpts{noFold: on(2), noCache: on(3)}
		if on(0) {
			opts.tenant = "acme"
		}
		if on(1) {
			opts.priority = -7
		}
		h := make(http.Header)
		opts.stamp(h)
		if got := parsePartialOpts(h); got != opts {
			t.Fatalf("opts %+v came back as %+v (headers %v)", opts, got, h)
		}
	}

	for _, c := range []struct {
		header string
		want   partialMeta
	}{
		{"", partialMeta{}},
		{"0", partialMeta{0, true}},
		{strconv.FormatUint(math.MaxUint64, 10), partialMeta{math.MaxUint64, true}},
		{"-1", partialMeta{}},
		{"x", partialMeta{}},
	} {
		h := make(http.Header)
		if c.header != "" {
			h.Set(HeaderEpoch, c.header)
		}
		var got partialMeta
		if got.epoch, got.hasEpoch = epochFromHeader(h); got != c.want {
			t.Fatalf("epoch header %q came back as %+v, want %+v", c.header, got, c.want)
		}
	}
}

// TestPartialBody: a body built around a query marshalled once is the
// body encoding/json writes for the request, whatever the partition name
// holds.
func TestPartialBody(t *testing.T) {
	queries := []*engine.Query{
		{Aggregates: []engine.Aggregate{{Func: engine.Count}}},
		{Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value", Alias: "<t>&"}}, GroupBy: []string{"app", "kind"},
			Filter: map[string][2]uint32{"ds": {3, 9}, "app": {0, 1}}, OrderBy: "<t>&", Desc: true, Limit: 10,
			Having: []engine.HavingCond{{Column: "<t>&", Op: ">", Value: 1.5e-7}}},
	}
	for _, name := range []string{"t#0", "wide#15", `q"uo\te`, "<a>&b", "é\u2028\x01"} {
		for _, q := range queries {
			query, err := json.Marshal(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(partialRequest{Partition: name, Query: *q})
			if err != nil {
				t.Fatal(err)
			}
			got, err := partialBody(name, query)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("partition %q:\n got %s\nwant %s", name, got, want)
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
// every per-query option. The golden was recorded from the commit before
// protocol.go existed; benchkit's proxy parses and replays this request.
// It also pins what a coordinator from before top-k pushdown was removed
// gets when it still asks for a pruned leaderboard partial: the full
// partial, blob byte for byte, with no top-k response header.
func TestPartialWireGolden(t *testing.T) {
	w0 := NewWorker(partition.Config{})
	log := &wireLog{worker: w0.Handler()}
	srv0 := httptest.NewServer(log)
	defer srv0.Close()
	cl0 := &Client{BaseURL: srv0.URL}
	if err := cl0.CreatePartition(context.Background(), "t#0", testSchema()); err != nil {
		t.Fatal(err)
	}
	t1, _, cl1, stop1 := realtimeWorker(t, "t#1", false)
	defer stop1()
	loadRows(t, cl0, "t#0", nil, [][3]float64{{0, 1, 100}, {1, 2, 5}, {2, 3, 10}})
	loadRows(t, cl1, "t#1", nil, [][3]float64{{0, 2, 90}, {1, 4, 8}})
	targets := []Target{{URL: srv0.URL, Partition: "t#0"}, t1}

	ctx := admission.WithMeta(WithCacheBypass(context.Background()), admission.Meta{Tenant: "acme", Priority: 3})
	plain := &engine.Query{
		Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value", Alias: "total"}, {Func: engine.Count}},
		Filter:     map[string][2]uint32{"ds": {0, 1}},
	}
	if _, err := (&Coordinator{NoFold: true}).Query(ctx, targets, plain); err != nil {
		t.Fatal(err)
	}

	topk := &engine.Query{
		Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value", Alias: "total"}},
		GroupBy:    []string{"app"},
		OrderBy:    "total",
		Desc:       true,
		Limit:      1,
	}
	body, err := json.Marshal(partialRequest{Partition: "t#0", Query: *topk})
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

	if len(log.seen) != 2 {
		t.Fatalf("%d /partial exchanges at t#0, want 2:\n%s", len(log.seen), strings.Join(log.seen, "\n"))
	}
	if log.seen[0] != partialGoldenPlain {
		t.Errorf("plain exchange\n--- got ---\n%s--- want ---\n%s", log.seen[0], partialGoldenPlain)
	}
	// A partial's group records come in its slab order, so the blob is
	// pinned too: it is the one received, and it holds every group of t#0.
	if log.seen[1] != partialGoldenLegacyTopK {
		t.Errorf("legacy top-k exchange\n--- got ---\n%s--- want ---\n%s", log.seen[1], partialGoldenLegacyTopK)
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
X-Cubrick-Fold: off
X-Cubrick-Priority: 3
X-Cubrick-Tenant: acme
{"partition":"t#0","query":{"Aggregates":[{"Func":0,"Metric":"value","Alias":"total"},{"Func":1,"Metric":"","Alias":""}],"GroupBy":null,"Filter":{"ds":[0,1]},"OrderBy":"","Desc":false,"Limit":0,"Having":null}}
-> 200
Content-Type: application/octet-stream
X-Cubrick-Epoch: 1
52504243020100000002010000000000405a40020000000000001440000000000000594000000000000000004002000000000000f03f000000000000f03f00
`

const partialGoldenLegacyTopK = `POST /partial
Content-Type: application/json
X-Cubrick-Topk: 1
{"partition":"t#0","query":{"Aggregates":[{"Func":0,"Metric":"value","Alias":"total"}],"GroupBy":["app"],"Filter":null,"OrderBy":"total","Desc":true,"Limit":1,"Having":null}}
-> 200
Content-Type: application/octet-stream
X-Cubrick-Epoch: 1
5250424303010000010103010000000000000000005940010000000000005940000000000000594000020000000000000000001440010000000000001440000000000000144000030000000000000000002440010000000000002440000000000000244000
`
