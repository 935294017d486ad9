// Package admission provides the query admission layer: a concurrency
// cap, a bounded priority queue, and load shedding. It sits in front of
// query execution at both the worker (partition.Set.Partial, one ticket
// per /partial call) and the coordinator (netexec.Coordinator), so
// a burst of dashboard traffic queues briefly — with queue time recorded
// in the trace plane and the query.queue_ms histogram — instead of
// thrashing the scan workers, and sheds (429, retryable under the
// resilience policy) once the queue is full.
package admission

import (
	"context"
	"errors"
	"sync"
	"time"

	"cubrick/internal/metrics"
	"cubrick/internal/simclock"
)

// ErrQueueFull is returned when the waiting queue is at capacity and the
// query is shed. HTTP frontends map it to 429 Too Many Requests, which the
// resilience policy classifies as retryable.
var ErrQueueFull = errors.New("admission: queue full, query shed")

// Config parameterizes a Controller.
type Config struct {
	// MaxConcurrent caps queries running at once (minimum 1).
	MaxConcurrent int
	// QueueDepth bounds the waiting queue; arrivals beyond it are shed
	// with ErrQueueFull. Zero means no queue: beyond MaxConcurrent,
	// arrivals shed immediately.
	QueueDepth int
	// Clock supplies time for queue-time measurement; nil uses the real
	// clock. Tests drive a simclock.
	Clock simclock.Clock
	// Metrics, when set, receives the query.queue_ms histogram and the
	// query.shed counter.
	Metrics *metrics.Registry
}

// Ticket is one admitted query's slot; Release returns it.
type Ticket struct {
	c        *Controller
	Queued   time.Duration // time spent waiting for admission
	released bool
	mu       sync.Mutex
}

// Release frees the slot and dispatches waiting queries. Safe to call
// more than once; extra calls are no-ops.
func (t *Ticket) Release() {
	if t == nil || t.c == nil {
		return
	}
	t.mu.Lock()
	done := t.released
	t.released = true
	t.mu.Unlock()
	if done {
		return
	}
	t.c.mu.Lock()
	t.c.releaseLocked()
	t.c.mu.Unlock()
}

// waiter is one queued admission request.
type waiter struct {
	priority int
	seq      uint64
	enqueued time.Time
	ready    chan struct{} // closed on admit
	admitted bool
}

// Controller implements admission control. A nil *Controller admits
// everything immediately, so callers can leave admission unconfigured.
type Controller struct {
	cfg   Config
	clock simclock.Clock

	mu      sync.Mutex
	running int
	queue   []*waiter
	seq     uint64
	shed    int64
}

// New builds a Controller. MaxConcurrent below 1 is raised to 1; a
// negative QueueDepth is treated as 0.
func New(cfg Config) *Controller {
	if cfg.MaxConcurrent < 1 {
		cfg.MaxConcurrent = 1
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	clock := cfg.Clock
	if clock == nil {
		clock = simclock.Real{}
	}
	return &Controller{cfg: cfg, clock: clock}
}

// QueueLen returns the number of queries waiting for admission.
func (c *Controller) QueueLen() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

// Running returns the number of admitted, unreleased queries.
func (c *Controller) Running() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.running
}

// Shed returns the cumulative count of shed queries.
func (c *Controller) Shed() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shed
}

// beats reports whether waiter a should be admitted before waiter b:
// higher priority first, then FIFO by arrival sequence.
func beats(a, b *waiter) bool {
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	return a.seq < b.seq
}

// pump admits the best waiter while a slot is free. Caller holds c.mu.
func (c *Controller) pump() {
	for c.running < c.cfg.MaxConcurrent && len(c.queue) > 0 {
		bestIdx := 0
		for i, w := range c.queue {
			if beats(w, c.queue[bestIdx]) {
				bestIdx = i
			}
		}
		best := c.queue[bestIdx]
		c.queue = append(c.queue[:bestIdx], c.queue[bestIdx+1:]...)
		best.admitted = true
		c.running++
		close(best.ready)
	}
}

// Admit blocks until the query may run, returning a Ticket to release, or
// sheds it with ErrQueueFull when the queue is at capacity. A canceled
// context abandons the wait with ctx.Err(). A nil Controller admits
// immediately with a no-op ticket.
func (c *Controller) Admit(ctx context.Context, priority int) (*Ticket, error) {
	if c == nil {
		return &Ticket{}, nil
	}
	c.mu.Lock()
	// Fast path: a free slot. The queue is then empty, because a waiter
	// is only queued while every slot is taken, and pump admits it as soon
	// as one frees.
	if c.running < c.cfg.MaxConcurrent {
		c.running++
		c.mu.Unlock()
		c.observeQueue(0)
		return &Ticket{c: c}, nil
	}
	if len(c.queue) >= c.cfg.QueueDepth {
		c.shed++
		c.mu.Unlock()
		if c.cfg.Metrics != nil {
			c.cfg.Metrics.Counter("query.shed").Inc()
		}
		return nil, ErrQueueFull
	}
	c.seq++
	w := &waiter{
		priority: priority,
		seq:      c.seq,
		enqueued: c.clock.Now(),
		ready:    make(chan struct{}),
	}
	c.queue = append(c.queue, w)
	c.mu.Unlock()

	select {
	case <-w.ready:
		queued := c.clock.Now().Sub(w.enqueued)
		c.observeQueue(queued)
		return &Ticket{c: c, Queued: queued}, nil
	case <-ctx.Done():
		c.mu.Lock()
		if w.admitted {
			// Lost the race: admitted between cancel and lock. Give the
			// slot back and dispatch the next waiter.
			c.releaseLocked()
			c.mu.Unlock()
			return nil, ctx.Err()
		}
		for i, qw := range c.queue {
			if qw == w {
				c.queue = append(c.queue[:i], c.queue[i+1:]...)
				break
			}
		}
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

func (c *Controller) observeQueue(d time.Duration) {
	if c.cfg.Metrics != nil {
		c.cfg.Metrics.Histogram("query.queue_ms").Observe(float64(d) / float64(time.Millisecond))
	}
}

// releaseLocked returns one running slot and admits the next waiter.
// Caller holds c.mu.
func (c *Controller) releaseLocked() {
	c.running--
	c.pump()
}
