package cubrick_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"cubrick"
)

// TestQueryCancelledFailsAtOnce: a query whose context is cancelled or past
// its deadline returns its cause from the first region. The proxy retries
// it nowhere, and the table is not blamed for it, so it is not
// blacklisted even at a threshold of one failure.
func TestQueryCancelledFailsAtOnce(t *testing.T) {
	cfg := cubrick.Defaults()
	cfg.Proxy.BlacklistThreshold = 1
	db, err := cubrick.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("m", cubrick.Schema{
		Dimensions: []cubrick.Dimension{{Name: "ds", Max: 30, Buckets: 6}},
		Metrics:    []cubrick.Metric{{Name: "value"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Load("m", [][]uint32{{1}, {2}}, [][]float64{{3}, {4}}); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT SUM(value) FROM m"
	baseline := runtime.NumGoroutine()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, c := range []struct {
		ctx  context.Context
		want error
	}{{cancelled, context.Canceled}, {expired, context.DeadlineExceeded}} {
		if _, err := db.Query(c.ctx, sql); !errors.Is(err, c.want) {
			t.Fatalf("query = %v, want %v", err, c.want)
		}
	}
	if n := db.Proxy().Retries.Value(); n != 0 {
		t.Fatalf("retries = %d, want 0: a cancelled query was retried in another region", n)
	}
	if db.Proxy().Blacklisted("m") {
		t.Fatal("cancelled queries blacklisted the table")
	}
	res, err := db.Query(context.Background(), sql)
	if err != nil || res.Rows[0][0] != 7 {
		t.Fatalf("query after the cancelled ones = %v, %v", res, err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, want back at the baseline of %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
