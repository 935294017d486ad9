package cluster

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"cubrick/internal/randutil"
)

// FaultTransport is the one fault model on the wire: an http.RoundTripper
// that draws each call's outcome from a TransportConfig. A drawn failure
// never reaches the inner transport; a drawn latency is recorded on the
// query's Calls once the inner transport answers. Nothing sleeps.
//
// A draw is a pure function of (seed, query key, host, n), n counting the
// query's earlier calls to that host, so neither goroutine order nor a peer
// a fail-fast cancel stopped before it started moves another call's draw.
// The key comes from the request context's Calls (WithCalls); a request
// without one draws under key 0, counted per host across all such requests.
type FaultTransport struct {
	inner   http.RoundTripper
	cfg     TransportConfig
	seed    uint64
	unkeyed Calls // key 0

	mu   sync.Mutex
	rnd  *randutil.Source // reseeded per draw
	down map[string]bool
}

// NewFaultTransport returns a fault transport over inner
// (http.DefaultTransport when nil) drawing from cfg under seed.
func NewFaultTransport(inner http.RoundTripper, cfg TransportConfig, seed int64) *FaultTransport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &FaultTransport{inner: inner, cfg: cfg, seed: uint64(seed), rnd: randutil.NewKeyed(), down: make(map[string]bool)}
}

// SetHostDown marks a host (a URL's host[:port]) down or back up. Calls to
// a down host fail with ErrHostDown and draw nothing.
func (t *FaultTransport) SetHostDown(host string, down bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.down[host] = down
}

// RoundTrip implements http.RoundTripper.
func (t *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	calls, ok := req.Context().Value(callsKey{}).(*Calls)
	if !ok {
		calls = &t.unkeyed
	}
	lat, err := t.draw(calls.key, host, calls.next(host))
	if err != nil {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, err
	}
	resp, err := t.inner.RoundTrip(req)
	if err == nil {
		calls.answer(host, lat)
	}
	return resp, err
}

// FirstFault returns the failure that the first call of query key draws on
// the first of hosts, in sorted order, that draws one, or nil. A fan-out
// that fails fast reports whichever faulted call returns first, which is
// goroutine order; this one replays from the seed, whether or not a cancel
// stopped that call before it drew.
func (t *FaultTransport) FirstFault(key uint64, hosts []string) error {
	hosts = slices.Clone(hosts)
	slices.Sort(hosts)
	for _, host := range slices.Compact(hosts) {
		if _, err := t.draw(key, host, 0); err != nil {
			return err
		}
	}
	return nil
}

// draw samples call n of query key to host.
func (t *FaultTransport) draw(key uint64, host string, n uint64) (time.Duration, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.down[host] {
		return 0, fmt.Errorf("%w: %s (injected)", ErrHostDown, host)
	}
	t.rnd.Seed(randutil.Hash(host, t.seed, key, n))
	lat, err := t.cfg.SampleOutcome(t.rnd)
	if err != nil {
		return 0, fmt.Errorf("%w: %s (injected)", err, host)
	}
	return lat, nil
}

// Calls is one query's record on a FaultTransport: the key its calls draw
// under, its calls per host, and what the calls that answered sampled.
type Calls struct {
	key      uint64
	mu       sync.Mutex
	hosts    map[string]hostCalls
	answered int // distinct hosts
	latency  time.Duration
}

type hostCalls struct {
	n        uint64 // calls drawn
	answered bool
}

type callsKey struct{}

// WithCalls returns ctx carrying a fresh Calls for the query keyed key.
func WithCalls(ctx context.Context, key uint64) (context.Context, *Calls) {
	c := &Calls{key: key}
	return context.WithValue(ctx, callsKey{}, c), c
}

// next counts a call to host and returns how many came before it.
func (c *Calls) next(host string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hosts == nil {
		c.hosts = make(map[string]hostCalls)
	}
	h := c.hosts[host]
	c.hosts[host] = hostCalls{n: h.n + 1, answered: h.answered}
	return h.n
}

func (c *Calls) answer(host string, lat time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h := c.hosts[host]; !h.answered {
		c.hosts[host] = hostCalls{n: h.n, answered: true}
		c.answered++
	}
	c.latency = max(c.latency, lat)
}

// Answered returns how many distinct hosts answered a call, and the
// largest latency such a call sampled.
func (c *Calls) Answered() (hosts int, latency time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.answered, c.latency
}
