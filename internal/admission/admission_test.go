package admission

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"cubrick/internal/metrics"
	"cubrick/internal/simclock"
)

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// admitAsync starts an Admit on its own goroutine and returns a channel of
// the outcome.
func admitAsync(c *Controller, ctx context.Context, priority int) chan struct {
	tkt *Ticket
	err error
} {
	ch := make(chan struct {
		tkt *Ticket
		err error
	}, 1)
	go func() {
		tkt, err := c.Admit(ctx, priority)
		ch <- struct {
			tkt *Ticket
			err error
		}{tkt, err}
	}()
	return ch
}

func TestNilControllerAdmitsEverything(t *testing.T) {
	var c *Controller
	tkt, err := c.Admit(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	tkt.Release() // must not panic
	if c.QueueLen() != 0 || c.Running() != 0 || c.Shed() != 0 {
		t.Fatal("nil controller reported state")
	}
}

func TestFIFOWithinPriority(t *testing.T) {
	c := New(Config{MaxConcurrent: 1, QueueDepth: 8})
	first, err := c.Admit(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	a := admitAsync(c, context.Background(), 0)
	waitFor(t, func() bool { return c.QueueLen() == 1 })
	b := admitAsync(c, context.Background(), 0)
	waitFor(t, func() bool { return c.QueueLen() == 2 })

	first.Release()
	ra := <-a
	if ra.err != nil {
		t.Fatal(ra.err)
	}
	// b must still be queued: a arrived first at equal priority.
	select {
	case <-b:
		t.Fatal("second waiter admitted before first released")
	default:
	}
	ra.tkt.Release()
	rb := <-b
	if rb.err != nil {
		t.Fatal(rb.err)
	}
	rb.tkt.Release()
	if c.Running() != 0 || c.QueueLen() != 0 {
		t.Fatalf("running=%d queued=%d after drain", c.Running(), c.QueueLen())
	}
}

func TestPriorityBeatsFIFO(t *testing.T) {
	c := New(Config{MaxConcurrent: 1, QueueDepth: 8})
	first, _ := c.Admit(context.Background(), 0)
	low := admitAsync(c, context.Background(), 0)
	waitFor(t, func() bool { return c.QueueLen() == 1 })
	high := admitAsync(c, context.Background(), 7)
	waitFor(t, func() bool { return c.QueueLen() == 2 })

	first.Release()
	rh := <-high
	if rh.err != nil {
		t.Fatal(rh.err)
	}
	select {
	case <-low:
		t.Fatal("low-priority waiter jumped the high-priority one")
	default:
	}
	rh.tkt.Release()
	(<-low).tkt.Release()
}

func TestShedOnFullQueue(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(Config{MaxConcurrent: 1, QueueDepth: 1, Metrics: reg})
	tkt, _ := c.Admit(context.Background(), 0)
	queued := admitAsync(c, context.Background(), 0)
	waitFor(t, func() bool { return c.QueueLen() == 1 })

	if _, err := c.Admit(context.Background(), 0); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow admit error = %v, want ErrQueueFull", err)
	}
	if c.Shed() != 1 {
		t.Fatalf("shed = %d, want 1", c.Shed())
	}
	if got := reg.CounterValues()["query.shed"]; got != 1 {
		t.Fatalf("query.shed counter = %d, want 1", got)
	}
	tkt.Release()
	(<-queued).tkt.Release()
}

func TestZeroQueueDepthShedsImmediately(t *testing.T) {
	c := New(Config{MaxConcurrent: 1})
	tkt, _ := c.Admit(context.Background(), 0)
	if _, err := c.Admit(context.Background(), 0); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("error = %v, want ErrQueueFull", err)
	}
	tkt.Release()
}

func TestCancelWhileQueued(t *testing.T) {
	c := New(Config{MaxConcurrent: 1, QueueDepth: 8})
	tkt, _ := c.Admit(context.Background(), 0)
	ctx, cancel := context.WithCancel(context.Background())
	queued := admitAsync(c, ctx, 0)
	waitFor(t, func() bool { return c.QueueLen() == 1 })
	cancel()
	r := <-queued
	if !errors.Is(r.err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", r.err)
	}
	if c.QueueLen() != 0 {
		t.Fatalf("canceled waiter still queued")
	}
	// The slot is unaffected: release admits nothing (queue empty) and
	// the controller drains to zero.
	tkt.Release()
	if c.Running() != 0 {
		t.Fatalf("running = %d after release", c.Running())
	}
}

// TestQueueTimeSimClock pins queue-time measurement against the simulated
// clock: a waiter that sits queued across a 250ms clock advance reports
// exactly that, into both the ticket and the query.queue_ms histogram.
func TestQueueTimeSimClock(t *testing.T) {
	clk := simclock.NewSim(time.Unix(0, 0))
	reg := metrics.NewRegistry()
	c := New(Config{MaxConcurrent: 1, QueueDepth: 8, Clock: clk, Metrics: reg})
	tkt, err := c.Admit(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if tkt.Queued != 0 {
		t.Fatalf("uncontended queue time = %v, want 0", tkt.Queued)
	}
	queued := admitAsync(c, context.Background(), 0)
	waitFor(t, func() bool { return c.QueueLen() == 1 })
	clk.Advance(250 * time.Millisecond)
	tkt.Release()
	r := <-queued
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.tkt.Queued != 250*time.Millisecond {
		t.Fatalf("queued = %v, want 250ms", r.tkt.Queued)
	}
	r.tkt.Release()
	h := reg.Histogram("query.queue_ms")
	if h.Count() != 2 {
		t.Fatalf("queue_ms observations = %d, want 2", h.Count())
	}
	// The histogram is bucketed; the 250ms observation must land within
	// its 5% resolution.
	if q := h.Quantile(0.99); q < 200 || q > 300 {
		t.Fatalf("queue_ms p99 = %v, want ≈250", q)
	}
}

func TestDoubleReleaseIsNoop(t *testing.T) {
	c := New(Config{MaxConcurrent: 1, QueueDepth: 8})
	tkt, _ := c.Admit(context.Background(), 0)
	tkt.Release()
	tkt.Release()
	if c.Running() != 0 {
		t.Fatalf("running = %d, want 0", c.Running())
	}
	// A fresh admit still works: the slot was returned once.
	tkt2, err := c.Admit(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tkt2.Release()
}

// TestConcurrentChurn hammers the controller from many goroutines under
// -race: the running count must never exceed the cap and must drain to
// zero.
func TestConcurrentChurn(t *testing.T) {
	c := New(Config{MaxConcurrent: 4, QueueDepth: 64})
	var wg sync.WaitGroup
	var mu sync.Mutex
	maxRunning := 0
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				ctx, cancel := context.WithCancel(context.Background())
				if (i+j)%7 == 0 {
					cancel()
				}
				tkt, err := c.Admit(ctx, j%3)
				if err != nil {
					cancel()
					continue
				}
				mu.Lock()
				if r := c.Running(); r > maxRunning {
					maxRunning = r
				}
				mu.Unlock()
				tkt.Release()
				cancel()
			}
		}(i)
	}
	wg.Wait()
	if maxRunning > 4 {
		t.Fatalf("observed %d running, cap is 4", maxRunning)
	}
	if c.Running() != 0 || c.QueueLen() != 0 {
		t.Fatalf("running=%d queued=%d after churn", c.Running(), c.QueueLen())
	}
}
