package netexec

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"cubrick/internal/admission"
	"cubrick/internal/engine"
	"cubrick/internal/partition"
)

// TestProtocolRoundTrip: what one end stamps the other parses back, for
// every combination of options and of response metadata the protocol can
// carry, with the threshold exact to the bit.
func TestProtocolRoundTrip(t *testing.T) {
	for bits := 0; bits < 1<<6; bits++ {
		on := func(b int) bool { return bits&(1<<b) != 0 }
		opts := partialOpts{noFold: on(2), noCache: on(3)}
		if on(0) {
			opts.tenant = "acme"
		}
		if on(1) {
			opts.priority = -7
		}
		if on(4) {
			opts.kPrime = 12
		}
		if on(5) {
			opts.keys = []string{"\x01\x00\x00\x00", "", "\xff\x00\x7f"}
		}
		h := make(http.Header)
		opts.stamp(h)
		got, err := parsePartialOpts(h)
		if err != nil {
			t.Fatal(err)
		}
		req := newPartialRequest("t#0", &engine.Query{}, opts)
		if got.keys, err = req.keys(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, opts) {
			t.Fatalf("opts %+v came back as %+v (headers %v)", opts, got, h)
		}
	}
	for _, k := range []string{"0", "-3", "x", "1.5"} {
		h := make(http.Header)
		h.Set(HeaderTopK, k)
		if _, err := parsePartialOpts(h); err == nil {
			t.Errorf("%s: %q accepted", HeaderTopK, k)
		}
	}
	if _, err := (&partialRequest{TopKKeys: []string{"zz"}}).keys(); err == nil {
		t.Error("non-hex topk key accepted")
	}

	thresholds := []float64{0, math.Copysign(0, -1), 10, -1.0 / 3, math.Pi * 1e300, math.SmallestNonzeroFloat64, math.Inf(-1)}
	for bits := 0; bits < 1<<3; bits++ {
		for _, th := range thresholds {
			m := partialMeta{hasEpoch: bits&1 != 0, hasThreshold: bits&2 != 0, complete: bits&4 != 0}
			if m.hasEpoch {
				m.epoch = math.MaxUint64
			}
			if m.hasThreshold {
				m.threshold, m.dropped = th, 41
			}
			h := make(http.Header)
			m.stamp(h)
			got := parsePartialMeta(h)
			if got != m || math.Float64bits(got.threshold) != math.Float64bits(m.threshold) {
				t.Fatalf("meta %+v came back as %+v (headers %v)", m, got, h)
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
// every per-query option, a top-k phase-1 call and the phase-2 call that
// follows it. The goldens were recorded from the commit before protocol.go
// existed; benchkit's proxy parses and replays this request.
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
	// TestTopKPushdownSecondPhase's skew: t#0 is asked for app 2 in phase 2.
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
	if _, err := (&Coordinator{TopKOverfetch: 1}).Query(context.Background(), targets, topk); err != nil {
		t.Fatal(err)
	}

	want := []string{partialGoldenPlain, partialGoldenPhase1, partialGoldenPhase2}
	if len(log.seen) != len(want) {
		t.Fatalf("%d /partial exchanges at t#0, want %d:\n%s", len(log.seen), len(want), strings.Join(log.seen, "\n"))
	}
	for i := range want {
		if log.seen[i] != want[i] {
			t.Errorf("exchange %d\n--- got ---\n%s--- want ---\n%s", i, log.seen[i], want[i])
		}
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

const partialGoldenPhase1 = `POST /partial
Content-Type: application/json
X-Cubrick-Topk: 1
{"partition":"t#0","query":{"Aggregates":[{"Func":0,"Metric":"value","Alias":"total"}],"GroupBy":["app"],"Filter":null,"OrderBy":"total","Desc":true,"Limit":1,"Having":null}}
-> 200
Content-Type: application/octet-stream
X-Cubrick-Epoch: 1
X-Cubrick-Topk-Dropped: 2
X-Cubrick-Topk-Threshold: 0x1.4p+03
5250424303010000010101010000000000000000005940010000000000005940000000000000594000
`

const partialGoldenPhase2 = `POST /partial
Content-Type: application/json
{"partition":"t#0","query":{"Aggregates":[{"Func":0,"Metric":"value","Alias":"total"}],"GroupBy":["app"],"Filter":null,"OrderBy":"total","Desc":true,"Limit":1,"Having":null},"topk_keys":["02000000"]}
-> 200
Content-Type: application/octet-stream
X-Cubrick-Epoch: 1
5250424303010000010101020000000000000000001440010000000000001440000000000000144000
`
