// Resilience layer for the networked data plane. The paper's scalability
// wall is a reliability argument: a scatter-gather over n workers succeeds
// only if every worker answers, so query success probability decays as
// (1-p)^n with fan-out (§I, Fig 1/5). Partial sharding bounds n; this file
// attacks p with the production toolkit LinkedIn describes for OLAP
// resilience: replica retries with capped exponential backoff, hedged
// requests against stragglers, per-host circuit breakers so dead workers
// are skipped instead of re-timed-out on every query, and explicitly
// labeled degraded results when the caller opts into partial coverage.
package netexec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"cubrick/internal/cluster"
	"cubrick/internal/metrics"
)

// QueryPolicy configures the coordinator's fault handling. The zero value
// reproduces the brittle baseline exactly: one attempt per call, no
// hedging, no degradation (any worker failure fails the query).
type QueryPolicy struct {
	// MaxAttempts is the total number of tries per call (one per
	// placement), spread round-robin over its primary and replica URLs. 0 or 1 means
	// no retries.
	MaxAttempts int
	// BaseBackoff is the first retry delay; each retry doubles it up to
	// MaxBackoff, and every delay is jittered uniformly in [d/2, d] so a
	// burst of failures does not resynchronize into a retry storm.
	// Defaults: 5ms base, 250ms cap.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// PerTryTimeout bounds each individual attempt (0 = only the query
	// context bounds it). A per-try deadline converts a straggler into a
	// retryable timeout instead of burning the whole query deadline.
	PerTryTimeout time.Duration
	// HedgeQuantile enables hedged requests: once an attempt has been
	// outstanding longer than this quantile of observed partial-fetch
	// latencies, the same request is re-issued to a replica and the first
	// response wins (the loser is cancelled). 0 disables hedging.
	HedgeQuantile float64
	// HedgeMinDelay floors the hedge delay and is used verbatim until
	// enough latency samples accumulate (default 25ms). HedgeMaxDelay caps
	// it (default 2s).
	HedgeMinDelay time.Duration
	HedgeMaxDelay time.Duration
	// MinCoverage is the smallest fraction of partitions that must merge
	// for the query to succeed. 0 or 1 keeps exact semantics (§II-C: any
	// missing partition fails the query). A value in (0,1) allows graceful
	// degradation: the partitions of an unreachable call (after retries)
	// are dropped and the result is annotated with Coverage and
	// MissingPartitions.
	MinCoverage float64
}

// Default policy knobs.
const (
	DefaultBaseBackoff   = 5 * time.Millisecond
	DefaultMaxBackoff    = 250 * time.Millisecond
	DefaultHedgeMinDelay = 25 * time.Millisecond
	DefaultHedgeMaxDelay = 2 * time.Second
	// hedgeWarmupSamples is how many fetch latencies must be observed
	// before the hedge delay trusts the measured quantile.
	hedgeWarmupSamples = 32
)

// DefaultQueryPolicy returns the policy cubrick-coordinator runs under
// unless a flag overrides a field: three attempts of at most 10 s each with
// jittered backoff, p95-based hedging, exact semantics.
func DefaultQueryPolicy() QueryPolicy {
	return QueryPolicy{
		MaxAttempts:   3,
		BaseBackoff:   DefaultBaseBackoff,
		MaxBackoff:    DefaultMaxBackoff,
		PerTryTimeout: 10 * time.Second,
		HedgeQuantile: 0.95,
		HedgeMinDelay: DefaultHedgeMinDelay,
		HedgeMaxDelay: DefaultHedgeMaxDelay,
		MinCoverage:   1,
	}
}

// exact reports whether the policy demands full coverage.
func (p QueryPolicy) exact() bool {
	return p.MinCoverage <= 0 || p.MinCoverage >= 1
}

// attempts returns the effective attempt budget.
func (p QueryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// backoffFor returns the capped exponential delay before retry number
// `retry` (0-based), pre-jitter.
func (p QueryPolicy) backoffFor(retry int) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = DefaultBaseBackoff
	}
	max := p.MaxBackoff
	if max <= 0 {
		max = DefaultMaxBackoff
	}
	d := base
	for i := 0; i < retry && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// HTTPStatusError is a worker response with a non-200 status, kept
// structured so the retry loop can classify it (5xx retryable, 4xx
// terminal).
type HTTPStatusError struct {
	Status int
	Msg    string
}

// Error implements error.
func (e *HTTPStatusError) Error() string {
	return fmt.Sprintf("status %d: %s", e.Status, e.Msg)
}

// PartialSizeError reports a worker partial exceeding the coordinator's
// response size bound — a corrupt or malicious worker must not be able to
// OOM the coordinator through io.ReadAll.
type PartialSizeError struct {
	Limit int64
}

// Error implements error.
func (e *PartialSizeError) Error() string {
	return fmt.Sprintf("partial response exceeds %d bytes", e.Limit)
}

// ErrClass is the retry classification of a worker failure.
type ErrClass int

const (
	// Retryable failures are transient transport or server conditions
	// (connection refused/reset, timeouts, 5xx) where a replica or a later
	// attempt may succeed.
	Retryable ErrClass = iota
	// Terminal failures will not be cured by retrying: the request itself
	// is bad (4xx), the payload is oversized or unmergeable, or the query
	// was cancelled.
	Terminal
)

// String implements fmt.Stringer.
func (c ErrClass) String() string {
	if c == Terminal {
		return "terminal"
	}
	return "retryable"
}

// ClassifyError sorts a partial-fetch failure into retryable vs terminal.
// Unknown errors default to retryable: everything the transport layer
// produces (dial errors, resets, unexpected EOF, injected faults) is a
// per-host condition a replica can dodge, whereas terminal conditions are
// an explicit, enumerable set.
func ClassifyError(err error) ErrClass {
	if err == nil {
		return Retryable
	}
	if errors.Is(err, context.Canceled) {
		// The query was abandoned (peer failure or caller cancel); retrying
		// against its dead context is pointless.
		return Terminal
	}
	if errors.Is(err, context.DeadlineExceeded) {
		// A per-try deadline fired; the query-level deadline is checked by
		// the retry loop before the next attempt.
		return Retryable
	}
	var se *HTTPStatusError
	if errors.As(err, &se) {
		if se.Status >= 500 || se.Status == 429 {
			return Retryable
		}
		return Terminal
	}
	var pe *PartialSizeError
	if errors.As(err, &pe) {
		return Terminal
	}
	// Injected fault-model errors behave like their real counterparts.
	if errors.Is(err, cluster.ErrHostDown) || errors.Is(err, cluster.ErrRequestFailed) || errors.Is(err, cluster.ErrTimeout) {
		return Retryable
	}
	return Retryable
}

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed passes requests through and counts failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects requests until the open timeout elapses.
	BreakerOpen
	// BreakerHalfOpen lets one probe request through at a time; enough
	// consecutive successes close the breaker, any failure re-opens it.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerConfig parameterizes the per-host circuit breakers.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive failures open the breaker.
	FailureThreshold int
	// OpenTimeout is how long an open breaker rejects before allowing a
	// half-open probe.
	OpenTimeout time.Duration
	// HalfOpenSuccesses is how many consecutive probe successes close the
	// breaker again.
	HalfOpenSuccesses int
}

// DefaultBreakerConfig returns the breaker tuning cubrick-coordinator runs
// under: open after 5 failures, probe after 5 s, close after 2 successes.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{FailureThreshold: 5, OpenTimeout: 5 * time.Second, HalfOpenSuccesses: 2}
}

// hostBreaker is one host's breaker state.
type hostBreaker struct {
	state    BreakerState
	fails    int
	succ     int
	openedAt time.Time
	probing  bool
}

// BreakerGroup holds one circuit breaker per worker URL. It is shared
// across queries via the Coordinator, so a dead worker discovered by one
// query is skipped straight to its replica by every following query
// instead of each paying a fresh connect timeout.
type BreakerGroup struct {
	// Metrics, when set, receives breaker counters
	// (netexec.breaker.opened, netexec.breaker.reopened).
	Metrics *metrics.Registry

	cfg BreakerConfig
	now func() time.Time

	mu    sync.Mutex
	hosts map[string]*hostBreaker
}

// NewBreakerGroup returns a breaker group on the wall clock.
func NewBreakerGroup(cfg BreakerConfig) *BreakerGroup {
	return NewBreakerGroupAt(cfg, time.Now)
}

// NewBreakerGroupAt returns a breaker group reading time from now — tests
// drive state transitions with a simulated clock.
func NewBreakerGroupAt(cfg BreakerConfig, now func() time.Time) *BreakerGroup {
	return &BreakerGroup{cfg: cfg, now: now, hosts: make(map[string]*hostBreaker)}
}

func (g *BreakerGroup) get(host string) *hostBreaker {
	b, ok := g.hosts[host]
	if !ok {
		b = &hostBreaker{}
		g.hosts[host] = b
	}
	return b
}

// Allow reports whether a request to host may proceed. In the open state
// it returns false until OpenTimeout has elapsed, then admits a single
// half-open probe at a time.
func (g *BreakerGroup) Allow(host string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.get(host)
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if g.now().Sub(b.openedAt) < g.cfg.OpenTimeout {
			return false
		}
		b.state = BreakerHalfOpen
		b.succ = 0
		b.probing = true
		return true
	default: // half-open: one probe outstanding at a time
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// ReportSuccess records a successful request to host.
func (g *BreakerGroup) ReportSuccess(host string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.get(host)
	switch b.state {
	case BreakerClosed:
		b.fails = 0
	case BreakerOpen:
		// A forced request (all candidates open) succeeded: move to
		// half-open so recovery proceeds through the normal probe path.
		b.state = BreakerHalfOpen
		b.succ = 1
		b.probing = false
		g.maybeClose(b)
	default:
		b.probing = false
		b.succ++
		g.maybeClose(b)
	}
}

// maybeClose closes a half-open breaker that has proven itself. Callers
// hold g.mu.
func (g *BreakerGroup) maybeClose(b *hostBreaker) {
	if b.state == BreakerHalfOpen && b.succ >= g.cfg.HalfOpenSuccesses {
		b.state = BreakerClosed
		b.fails = 0
		b.succ = 0
	}
}

// ReportFailure records a failed request to host.
func (g *BreakerGroup) ReportFailure(host string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.get(host)
	switch b.state {
	case BreakerClosed:
		b.fails++
		if b.fails >= g.cfg.FailureThreshold {
			b.state = BreakerOpen
			b.openedAt = g.now()
			if g.Metrics != nil {
				g.Metrics.Counter("netexec.breaker.opened").Inc()
			}
		}
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAt = g.now()
		b.probing = false
		b.succ = 0
		if g.Metrics != nil {
			g.Metrics.Counter("netexec.breaker.reopened").Inc()
		}
	default:
		// Already open: a forced request failed; leave openedAt so the
		// probe schedule is unaffected.
	}
}

// State returns the breaker state for host (closed if never seen).
func (g *BreakerGroup) State(host string) BreakerState {
	g.mu.Lock()
	defer g.mu.Unlock()
	b, ok := g.hosts[host]
	if !ok {
		return BreakerClosed
	}
	// Surface the pending half-open transition so observers see the state
	// a request would experience.
	if b.state == BreakerOpen && g.now().Sub(b.openedAt) >= g.cfg.OpenTimeout {
		return BreakerHalfOpen
	}
	return b.state
}

// jitter scales d uniformly into [d/2, d]; the shared source is seeded
// once per process, which is all retry desynchronization needs.
var jitterRnd = struct {
	sync.Mutex
	r *rand.Rand
}{r: rand.New(rand.NewSource(time.Now().UnixNano()))}

func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	jitterRnd.Lock()
	f := 0.5 + 0.5*jitterRnd.r.Float64()
	jitterRnd.Unlock()
	return time.Duration(float64(d) * f)
}

// sleepCtx sleeps for d or until ctx is done, returning ctx.Err() in the
// latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
