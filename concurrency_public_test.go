package cubrick_test

import (
	"context"
	"sync"
	"testing"
)

// TestConcurrentQueriesThroughProxy runs parallel query traffic through
// the proxy (run with -race): all results must be exact.
func TestConcurrentQueriesThroughProxy(t *testing.T) {
	db := openDB(t)
	if err := db.CreateTable("m", demoSchema()); err != nil {
		t.Fatal(err)
	}
	n := 300
	dims := make([][]uint32, n)
	mets := make([][]float64, n)
	var want float64
	for i := 0; i < n; i++ {
		dims[i] = []uint32{uint32(i) % 30, uint32(i) % 20}
		mets[i] = []float64{float64(i)}
		want += float64(i)
	}
	if err := db.Load("m", dims, mets); err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const perGoroutine = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				res, err := db.Query(context.Background(), "SELECT SUM(value) FROM m")
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if res.Rows[0][0] != want {
					t.Errorf("sum = %v, want %v", res.Rows[0][0], want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := db.Proxy().Queries.Value(); got != goroutines*perGoroutine {
		t.Fatalf("proxy counted %d queries, want %d", got, goroutines*perGoroutine)
	}
}
