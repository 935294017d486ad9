package scancache

import (
	"fmt"
	"sync"
	"testing"

	"cubrick/internal/metrics"
)

func TestBasicGetPut(t *testing.T) {
	c := New(1000)
	if _, ok := c.Get("k", 0); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("k", 42, 100, 0)
	v, ok := c.Get("k", 0)
	if !ok || v.(int) != 42 {
		t.Fatalf("got %v %v", v, ok)
	}
	// Replacement updates value and accounting.
	c.Put("k", 43, 200, 0)
	v, _ = c.Get("k", 0)
	if v.(int) != 43 {
		t.Fatalf("replacement lost: %v", v)
	}
	st := c.Stats()
	if st.Bytes != 200 || st.Entries != 1 {
		t.Fatalf("stats after replace: %+v", st)
	}
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("hit/miss counts: %+v", st)
	}
}

func TestNilCacheAlwaysMisses(t *testing.T) {
	var c *Cache
	c.Put("k", 1, 10, 0)
	if _, ok := c.Get("k", 0); ok {
		t.Fatal("nil cache hit")
	}
	c.SetMetrics(metrics.NewRegistry(), "x")
	if c.Stats() != (Stats{}) {
		t.Fatal("nil cache stats not zero")
	}
	if New(0) != nil || New(-1) != nil {
		t.Fatal("non-positive budget must return nil")
	}
}

func TestByteBudgetEviction(t *testing.T) {
	c := New(500)
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, 100, 0)
	}
	st := c.Stats()
	if st.Bytes > 500 {
		t.Fatalf("bytes %d over budget", st.Bytes)
	}
	if st.Entries != 5 || st.Evictions != 5 {
		t.Fatalf("stats: %+v", st)
	}
	// Plain LRU with zero heat: the oldest five are gone.
	for i := 0; i < 5; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i), 0); ok {
			t.Fatalf("k%d should have been evicted", i)
		}
	}
	for i := 5; i < 10; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i), 0); !ok {
			t.Fatalf("k%d should have survived", i)
		}
	}
}

func TestOversizedEntryRejected(t *testing.T) {
	c := New(100)
	c.Put("small", 1, 50, 0)
	c.Put("huge", 2, 101, 0)
	if _, ok := c.Get("huge", 0); ok {
		t.Fatal("oversized entry admitted")
	}
	if _, ok := c.Get("small", 0); !ok {
		t.Fatal("oversized put wiped existing entries")
	}
}

// An owner whose entries grow in place re-prices them with Put, settles
// hit or miss itself (Peek does not count), and an entry that outgrows the
// whole budget leaves the cache instead of staying at its old price.
func TestPeekCountAndRegrow(t *testing.T) {
	c := New(1000)
	var nilCache *Cache
	nilCache.Count(true)
	if _, ok := nilCache.Peek("k", 0); ok {
		t.Fatal("nil cache peek hit")
	}
	if _, ok := c.Peek("k", 0); ok {
		t.Fatal("empty cache peek hit")
	}
	c.Put("k", "v", 100, 0)
	c.Put("other", "v", 100, 0)
	if v, ok := c.Peek("k", 3); !ok || v.(string) != "v" {
		t.Fatalf("peek: %v %v", v, ok)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Peek counted: %+v", st)
	}
	c.Count(true)
	c.Count(false)
	c.Count(false)
	if st := c.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("Count: %+v", st)
	}
	c.Put("k", "v", 950, 3) // grew: "other" has to go
	if st := c.Stats(); st.Bytes != 950 || st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("after regrow: %+v", st)
	}
	c.Put("k", "v", 1001, 3) // outgrew the budget
	if _, ok := c.Peek("k", 0); ok {
		t.Fatal("outgrown entry still resident")
	}
	if st := c.Stats(); st.Bytes != 0 || st.Entries != 0 || st.Evictions != 2 {
		t.Fatalf("after outgrowing: %+v", st)
	}
}

// Delete and DeleteFunc drop what an owner knows is stale: bytes, entries
// and both gauges follow, and neither counts as an eviction.
func TestDeleteAndDeleteFunc(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(1000)
	c.SetMetrics(reg, "cache.test")
	for i, key := range []string{"a1", "a2", "b1", "b2"} {
		c.Put(key, i, 100, 0)
	}
	sized := func(stage string, bytes int64, entries int) {
		t.Helper()
		st := c.Stats()
		if st.Bytes != bytes || st.Entries != entries || st.Evictions != 0 {
			t.Fatalf("%s: %+v, want %d bytes in %d entries and no evictions", stage, st, bytes, entries)
		}
		gb, ge := reg.Gauge("cache.test.bytes").Value(), reg.Gauge("cache.test.entries").Value()
		if gb != float64(bytes) || ge != float64(entries) {
			t.Fatalf("%s: gauges bytes=%v entries=%v", stage, gb, ge)
		}
	}
	if !c.Delete("a1") || c.Delete("a1") || c.Delete("nope") {
		t.Fatal("Delete must report exactly whether the key was resident")
	}
	if _, ok := c.Peek("a1", 0); ok {
		t.Fatal("deleted entry still resident")
	}
	sized("after Delete", 300, 3)

	var seen []int
	n := c.DeleteFunc(func(v any) bool {
		seen = append(seen, v.(int))
		return v.(int) >= 2
	})
	if n != 2 || len(seen) != 3 {
		t.Fatalf("DeleteFunc dropped %d after looking at %v, want 2 of 3", n, seen)
	}
	if _, ok := c.Peek("a2", 0); !ok {
		t.Fatal("DeleteFunc dropped an entry its predicate kept")
	}
	sized("after DeleteFunc", 100, 1)
	if vals := reg.CounterValues(); vals["cache.test.evict"] != 0 {
		t.Fatalf("deletes counted as evictions: %v", vals)
	}

	var nilCache *Cache
	if nilCache.Delete("a2") || nilCache.DeleteFunc(func(any) bool { return true }) != 0 {
		t.Fatal("nil cache deleted something")
	}
}

func TestHeatAwareEviction(t *testing.T) {
	c := New(300)
	// Hot entry inserted first (LRU tail), cold ones after.
	c.Put("hot", 1, 100, 50)
	c.Put("cold1", 2, 100, 0)
	c.Put("cold2", 3, 100, 0)
	// Over budget: within the tail window the coldest entry loses, even
	// though "hot" is the least recently used.
	c.Put("cold3", 4, 100, 0)
	if _, ok := c.Get("hot", 50); !ok {
		t.Fatal("hot entry evicted ahead of colder, more recent ones")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestGetRefreshesHeat(t *testing.T) {
	c := New(300)
	c.Put("a", 1, 100, 0)
	c.Put("b", 2, 100, 0)
	c.Put("c", 3, 100, 0)
	// "a" is oldest but its data got hot since fill; the refreshed heat
	// must protect it from the next eviction.
	c.Get("a", 99)
	c.Put("d", 4, 100, 0)
	if _, ok := c.Get("a", 99); !ok {
		t.Fatal("refreshed-heat entry evicted")
	}
}

func TestMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(150)
	c.SetMetrics(reg, "cache.test")
	c.Get("k", 0)
	c.Put("k", 1, 100, 0)
	c.Get("k", 0)
	c.Put("k2", 2, 100, 0) // evicts k
	vals := reg.CounterValues()
	if vals["cache.test.hit"] != 1 || vals["cache.test.miss"] != 1 || vals["cache.test.evict"] != 1 {
		t.Fatalf("counters: %v", vals)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(10_000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (w*7+i)%40)
				if v, ok := c.Get(key, float64(i%5)); ok {
					_ = v.(int)
				} else {
					c.Put(key, i, 300, float64(i%5))
				}
				switch i % 50 {
				case 7:
					c.Delete(key)
				case 31:
					c.DeleteFunc(func(v any) bool { return v.(int)%3 == w%3 })
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > 10_000 {
		t.Fatalf("bytes %d over budget after concurrent churn", st.Bytes)
	}
}
