package netexec

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"cubrick/internal/brick"
	"cubrick/internal/engine"
	"cubrick/internal/simclock"
	"cubrick/internal/trace"
)

// The deterministic trace-tree test: a fan-out-8 query on a simulated
// tracer clock, with one injected per-try failure (partition t#3 gets an
// HTTP 500 on its first try) and one hung primary (t#7's primary never
// answers, so the hedge to its replica rescues it). A sequencing
// RoundTripper serializes the requests into explicit turns — each turn
// advances the fake clock by a known amount before answering — so every
// span's start and duration is exact and the whole tree is asserted as
// one string: the retry span sits under t#3's partition span, the losing
// hedge half ends canceled, and the durations are the fake-clock deltas.

// seqTurn is one scheduled response: the request it answers (keyed
// partition|host|try), a settle token that must have been observed before
// the turn may fire, how far to advance the fake clock, and whether to
// answer with the injected 500.
type seqTurn struct {
	key     string
	pre     string
	advance time.Duration
	fail    bool
}

// seqRT is the sequencing transport. All first-wave requests (the eight
// initial tries) must be blocked inside RoundTrip before the first turn
// fires, so every partition and fetch span starts at fake-clock zero;
// after that, turns fire in order, each gated on the previous turn's
// spans having ended (settle tokens fed by Tracer.OnSpanEnd).
type seqRT struct {
	clk  *simclock.SimClock
	blob []byte // success response body (a marshaled engine partial)

	mu        sync.Mutex
	cond      *sync.Cond
	firstWave int
	next      int
	turns     []seqTurn
	tries     map[string]int // partition|host -> tries seen
	settled   map[string]bool
}

func newSeqRT(clk *simclock.SimClock, blob []byte, turns []seqTurn) *seqRT {
	rt := &seqRT{
		clk:     clk,
		blob:    blob,
		turns:   turns,
		tries:   make(map[string]int),
		settled: make(map[string]bool),
	}
	rt.cond = sync.NewCond(&rt.mu)
	return rt
}

// settle records a span-end token and wakes the barrier.
func (rt *seqRT) settle(token string) {
	rt.mu.Lock()
	rt.settled[token] = true
	rt.cond.Broadcast()
	rt.mu.Unlock()
}

func (rt *seqRT) respond(req *http.Request, status int, body []byte) *http.Response {
	return &http.Response{
		StatusCode:    status,
		Status:        fmt.Sprintf("%d %s", status, http.StatusText(status)),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        make(http.Header),
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

func (rt *seqRT) RoundTrip(req *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	req.Body.Close()
	var pr struct {
		Partition string `json:"partition"`
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		return nil, err
	}
	host := req.URL.Host
	rt.mu.Lock()
	tk := pr.Partition + "|" + host
	rt.tries[tk]++
	key := fmt.Sprintf("%s|%s|%d", pr.Partition, host, rt.tries[tk])
	if rt.tries[tk] == 1 && host != "p7b" {
		rt.firstWave++
		rt.cond.Broadcast()
	}
	if host == "p7a" {
		// The hung primary: hold the request open until the hedge's win
		// cancels it, so its fetch span ends StatusCanceled.
		rt.mu.Unlock()
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	for {
		if rt.firstWave == 8 && rt.next < len(rt.turns) && rt.turns[rt.next].key == key {
			turn := rt.turns[rt.next]
			if turn.pre == "" || rt.settled[turn.pre] {
				rt.clk.Advance(turn.advance)
				rt.next++
				rt.cond.Broadcast()
				rt.mu.Unlock()
				if turn.fail {
					return rt.respond(req, http.StatusInternalServerError, []byte("injected fault")), nil
				}
				return rt.respond(req, http.StatusOK, rt.blob), nil
			}
		}
		rt.cond.Wait()
	}
}

// traceTestBlob builds one success partial: a 5-row store executed under
// a bare COUNT, marshaled to the wire form every fake worker returns.
func traceTestBlob(t *testing.T) []byte {
	t.Helper()
	st, err := brick.NewStore(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := st.Insert([]uint32{uint32(i % 30), uint32(i % 20)}, []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	partial, err := engine.Execute(st, q)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := partial.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestTraceTreeDeterministic drives the scenario above and asserts the
// exact rendered trace tree.
func TestTraceTreeDeterministic(t *testing.T) {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := simclock.NewSim(epoch)
	tracer := trace.New(trace.Config{Now: clk.Now, Seed: 42})

	const ms = time.Millisecond
	turns := []seqTurn{
		{key: "t#0|p0|1", advance: 1 * ms},
		{key: "t#1|p1|1", advance: 1 * ms, pre: "partition:t#0"},
		{key: "t#2|p2|1", advance: 1 * ms, pre: "partition:t#1"},
		{key: "t#4|p4|1", advance: 1 * ms, pre: "partition:t#2"},
		{key: "t#5|p5|1", advance: 1 * ms, pre: "partition:t#4"},
		{key: "t#6|p6|1", advance: 1 * ms, pre: "partition:t#5"},
		{key: "t#3|p3|1", advance: 2 * ms, pre: "partition:t#6", fail: true},
		{key: "t#3|p3|2", advance: 2 * ms, pre: "fetch:http://p3:1"},
		{key: "t#7|p7b|1", advance: 2 * ms, pre: "partition:t#3"},
	}
	rt := newSeqRT(clk, traceTestBlob(t), turns)
	tracer.OnSpanEnd = func(d trace.SpanData) {
		switch d.Name {
		case "partition":
			rt.settle("partition:" + d.Attrs["partition"])
		case "fetch":
			rt.settle("fetch:" + d.Attrs["url"] + ":" + d.Attrs["try"])
		}
	}

	coord := &Coordinator{
		Client: &http.Client{Transport: rt},
		Policy: QueryPolicy{
			MaxAttempts: 2,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  2 * time.Millisecond,
			// The hedge delay is real wall time (the tracer clock is the
			// only simulated one); 750ms is far beyond the few
			// milliseconds the first eight turns need, so the hedge's
			// fetch span reliably starts after t#3's retry resolved —
			// fake clock 10ms.
			HedgeQuantile: 0.5,
			HedgeMinDelay: 750 * time.Millisecond,
		},
		Tracer: tracer,
	}
	targets := make([]Target, 8)
	for i := 0; i < 8; i++ {
		targets[i] = Target{URL: fmt.Sprintf("http://p%d", i), Partition: fmt.Sprintf("t#%d", i)}
	}
	targets[7] = Target{URL: "http://p7a", Partition: "t#7", Replicas: []string{"http://p7b"}}

	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	ctx, root := tracer.StartSpan(context.Background(), "coordinator.query")
	traceID := root.TraceID()
	res, err := coord.Query(ctx, targets, q)
	root.EndErr(err)
	if err != nil {
		t.Fatalf("query failed: %v", err)
	}
	// 8 successful partials of 5 rows each; the canceled hedge loser and
	// the failed first try must not double-count.
	if res.Rows[0][0] != 40 {
		t.Fatalf("count = %v, want 40", res.Rows[0][0])
	}

	// The losing hedge half ends asynchronously after Query returns; wait
	// for the full 21-span tree to close before snapshotting.
	const wantSpans = 21
	deadline := time.Now().Add(5 * time.Second)
	var td trace.TraceData
	for {
		var ok bool
		td, ok = tracer.Get(traceID)
		if ok && len(td.Spans) == wantSpans {
			open := false
			for _, s := range td.Spans {
				if s.Status == trace.StatusOpen {
					open = true
					break
				}
			}
			if !open {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace did not close (%d spans):\n%s", len(td.Spans), td.Tree())
		}
		time.Sleep(time.Millisecond)
	}

	want := `coordinator.query ok [0.000ms +12.000ms]
  coordinator.fanout ok [0.000ms +12.000ms] targets=8
    partition ok [0.000ms +1.000ms] partition=t#0
      fetch ok [0.000ms +1.000ms] role=primary try=1 url=http://p0
    partition ok [0.000ms +10.000ms] partition=t#3
      fetch error [0.000ms +8.000ms] role=primary try=1 url=http://p3 err="status 500: injected fault"
      fetch ok [8.000ms +2.000ms] role=primary try=2 url=http://p3
    partition ok [0.000ms +12.000ms] partition=t#7
      fetch canceled [0.000ms +12.000ms] role=primary try=1 url=http://p7a
      fetch ok [10.000ms +2.000ms] role=hedge try=1 url=http://p7b
    partition ok [0.000ms +2.000ms] partition=t#1
      fetch ok [0.000ms +2.000ms] role=primary try=1 url=http://p1
    partition ok [0.000ms +3.000ms] partition=t#2
      fetch ok [0.000ms +3.000ms] role=primary try=1 url=http://p2
    partition ok [0.000ms +4.000ms] partition=t#4
      fetch ok [0.000ms +4.000ms] role=primary try=1 url=http://p4
    partition ok [0.000ms +5.000ms] partition=t#5
      fetch ok [0.000ms +5.000ms] role=primary try=1 url=http://p5
    partition ok [0.000ms +6.000ms] partition=t#6
      fetch ok [0.000ms +6.000ms] role=primary try=1 url=http://p6
    coordinator.finalize ok [12.000ms +0.000ms]
`
	if got := td.Tree(); got != want {
		t.Errorf("trace tree mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
