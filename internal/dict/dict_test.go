package dict

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestEncodeLookupDecode(t *testing.T) {
	d := New(16)
	id, err := d.Encode("US")
	if err != nil || id != 0 {
		t.Fatalf("Encode = %d, %v", id, err)
	}
	id2, _ := d.Encode("BR")
	if id2 != 1 {
		t.Fatalf("second id = %d", id2)
	}
	// Idempotent.
	again, _ := d.Encode("US")
	if again != 0 {
		t.Fatalf("re-encode = %d", again)
	}
	if got, _ := d.Lookup("BR"); got != 1 {
		t.Fatalf("Lookup = %d", got)
	}
	if _, err := d.Lookup("JP"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown lookup = %v", err)
	}
	if s, _ := d.Decode(0); s != "US" {
		t.Fatalf("Decode = %q", s)
	}
	if _, err := d.Decode(99); !errors.Is(err, ErrUnknown) {
		t.Fatalf("bad decode = %v", err)
	}
	if d.Len() != 2 || d.Capacity() != 16 {
		t.Fatalf("len/cap = %d/%d", d.Len(), d.Capacity())
	}
}

func TestCapacityExhaustion(t *testing.T) {
	d := New(2)
	d.Encode("a")
	d.Encode("b")
	if _, err := d.Encode("c"); !errors.Is(err, ErrFull) {
		t.Fatalf("over-capacity encode = %v", err)
	}
	// Existing values still encode fine.
	if id, err := d.Encode("a"); err != nil || id != 0 {
		t.Fatalf("existing value after full = %d, %v", id, err)
	}
}

func TestZeroCapacityClamped(t *testing.T) {
	d := New(0)
	if _, err := d.Encode("x"); err != nil {
		t.Fatalf("clamped capacity rejected first value: %v", err)
	}
}

// Property: Encode/Decode round-trips for arbitrary strings, ids are dense
// and stable.
func TestRoundTripProperty(t *testing.T) {
	d := New(1 << 20)
	seen := make(map[string]uint32)
	f := func(v string) bool {
		id, err := d.Encode(v)
		if err != nil {
			return false
		}
		if prev, ok := seen[v]; ok && prev != id {
			return false
		}
		seen[v] = id
		s, err := d.Decode(id)
		return err == nil && s == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentEncode(t *testing.T) {
	d := New(1 << 16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				v := fmt.Sprintf("val-%d", i) // shared across workers
				id, err := d.Encode(v)
				if err != nil {
					t.Errorf("encode: %v", err)
					return
				}
				s, err := d.Decode(id)
				if err != nil || s != v {
					t.Errorf("decode mismatch: %q vs %q (%v)", s, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if d.Len() != 500 {
		t.Fatalf("len = %d, want 500 (ids must dedupe across goroutines)", d.Len())
	}
}

func TestSet(t *testing.T) {
	s := NewSet()
	if s.Get("region") != nil {
		t.Fatal("empty set returned a dictionary")
	}
	d1 := s.Add("region", 16)
	d2 := s.Add("region", 99) // idempotent: keeps the first
	if d1 != d2 {
		t.Fatal("Add not idempotent")
	}
	s.Add("app", 32)
	cols := s.Columns()
	if len(cols) != 2 || cols[0] != "app" || cols[1] != "region" {
		t.Fatalf("Columns = %v", cols)
	}
	if s.Get("region") != d1 {
		t.Fatal("Get returned wrong dictionary")
	}
}
