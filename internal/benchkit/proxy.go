package benchkit

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"
)

// traceHeader is set by the coordinator on every /query reply and on
// every call it makes to a worker on that query's behalf.
const traceHeader = "X-Cubrick-Trace"

// origin is the zero of every span timestamp in this process.
var origin = time.Now()

func now() int64 { return int64(time.Since(origin)) }

// Span is one timed call. A client /query span and the coordinator→worker
// calls it caused share a Trace.
type Span struct {
	Trace     string `json:"trace"`
	Name      string `json:"name"` // "query", or the worker path called
	Worker    int    `json:"worker"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	Status    int    `json:"status"` // 0: no reply was delivered
	OK        bool   `json:"ok"`     // a query: status 200 and every partition covered
	ReqBytes  int64  `json:"req_bytes"`
	RespBytes int64  `json:"resp_bytes"`
	Cancelled bool   `json:"cancelled,omitempty"` // the coordinator gave the call up
	Injected  string `json:"injected,omitempty"`  // "fail" or "delay"
}

// FaultPlan is the seeded fault schedule of the wall_faults workload,
// shared by the proxies in front of all workers: each /partial call
// independently fails with 503 or stalls, with the paper's per-call
// probability. A (query, partition) pair is struck at most once, so a
// coordinator that tries again always succeeds and the workload has no
// failing operation by construction; one that does not try again fails
// about a quarter of its 16-partition queries.
type FaultPlan struct {
	FailProb, DelayProb float64
	Delay               time.Duration

	mu     sync.Mutex
	r      *rand.Rand
	struck map[string]bool
}

// NewFaultPlan returns the wall_faults schedule: 2% of calls fail, 2%
// stall 40 ms.
func NewFaultPlan(seed int64) *FaultPlan {
	return &FaultPlan{
		FailProb: 0.02, DelayProb: 0.02, Delay: 40 * time.Millisecond,
		r: rand.New(rand.NewSource(seed)), struck: make(map[string]bool),
	}
}

// decide returns "", "fail" or "delay" for a call identified by key.
func (f *FaultPlan) decide(key string) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	u := f.r.Float64()
	if u >= f.FailProb+f.DelayProb || f.struck[key] {
		return ""
	}
	f.struck[key] = true
	if u < f.FailProb {
		return "fail"
	}
	return "delay"
}

// Captured is a worker call kept for replay by the direct probe.
type Captured struct {
	Header http.Header
	Body   []byte
}

// maxCaptured bounds how many /partial calls a proxy keeps for the probe.
const maxCaptured = 200

// Proxy forwards every request to one worker, records a Span for each and
// applies the FaultPlan, if any, to /partial calls.
type Proxy struct {
	URL string

	target    string
	faults    *FaultPlan
	transport *http.Transport
	server    *http.Server

	mu       sync.Mutex
	spans    []Span
	captured []Captured
	untraced int // /partial calls that carried no trace header
}

// StartProxy listens on a free loopback port and forwards to target.
func StartProxy(target string, faults *FaultPlan) (*Proxy, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		URL:    "http://" + l.Addr().String(),
		target: target,
		faults: faults,
		// Bytes pass through as the worker wrote them: the proxy must
		// count what crosses the wire, gzip included, not inflate it.
		transport: &http.Transport{DisableCompression: true, MaxIdleConnsPerHost: 64},
	}
	p.server = &http.Server{Handler: p}
	go p.server.Serve(l)
	return p, nil
}

// Close stops the listener and drops every connection.
func (p *Proxy) Close() {
	p.server.Close()
	p.transport.CloseIdleConnections()
}

// Drain returns the spans recorded so far and forgets them.
func (p *Proxy) Drain() (spans []Span, untraced int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	spans, untraced = p.spans, p.untraced
	p.spans, p.untraced = nil, 0
	return spans, untraced
}

// Captured returns the /partial calls kept for the probe.
func (p *Proxy) Captured() []Captured {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.captured
}

func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sp := Span{Trace: r.Header.Get(traceHeader), Name: r.URL.Path, Start: now()}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sp.ReqBytes = int64(len(body))
	if r.URL.Path == "/partial" {
		p.onPartial(&sp, r.Header, body)
	}
	switch sp.Injected {
	case "fail":
		sp.Status = http.StatusServiceUnavailable
		http.Error(w, "benchkit: injected fault", sp.Status)
	case "delay":
		select {
		case <-time.After(p.faults.Delay):
		case <-r.Context().Done():
		}
		fallthrough
	default:
		var whole bool
		sp.Status, sp.RespBytes, whole = p.forward(w, r, body)
		// A caller that hangs up after the whole reply was delivered (Go's
		// transport does, on some gzip bodies) wasted nothing.
		sp.Cancelled = !whole && r.Context().Err() != nil
	}
	sp.End = now()
	p.mu.Lock()
	p.spans = append(p.spans, sp)
	p.mu.Unlock()
}

// onPartial applies the fault plan and keeps the call for the probe.
func (p *Proxy) onPartial(sp *Span, h http.Header, body []byte) {
	if p.faults != nil {
		var req struct {
			Partition string `json:"partition"`
		}
		json.Unmarshal(body, &req) // an unparsable body just shares one fault key
		sp.Injected = p.faults.decide(sp.Trace + "/" + req.Partition)
	}
	p.mu.Lock()
	if sp.Trace == "" {
		p.untraced++
	}
	if len(p.captured) < maxCaptured {
		p.captured = append(p.captured, Captured{Header: h.Clone(), Body: body})
	}
	p.mu.Unlock()
}

// forward relays the request to the worker and the reply back, returning
// the status, the body bytes delivered and whether that was the whole
// reply (0, 0, false when the call died on the way).
func (p *Proxy) forward(w http.ResponseWriter, r *http.Request, body []byte) (int, int64, bool) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, p.target+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return 0, 0, false
	}
	req.Header = r.Header.Clone()
	resp, err := p.transport.RoundTrip(req)
	if err != nil {
		if r.Context().Err() == nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
		}
		return 0, 0, false
	}
	defer resp.Body.Close()
	for k, v := range resp.Header {
		w.Header()[k] = v
	}
	w.WriteHeader(resp.StatusCode)
	n, err := io.Copy(w, resp.Body)
	return resp.StatusCode, n, err == nil
}

// Direct replays captured calls one at a time straight at a worker, with
// every worker-side cache bypassed so each replay pays the whole
// prune/decode/aggregate path, and returns each call's time in ms.
func Direct(ctx context.Context, workerURL string, calls []Captured) ([]float64, error) {
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	ms := make([]float64, 0, len(calls))
	for _, c := range calls {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, workerURL+"/partial", bytes.NewReader(c.Body))
		if err != nil {
			return nil, err
		}
		req.Header = c.Header.Clone()
		req.Header.Set("X-Cubrick-Cache", "off")
		start := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusOK {
			ms = append(ms, float64(time.Since(start))/1e6)
		}
	}
	return ms, nil
}
