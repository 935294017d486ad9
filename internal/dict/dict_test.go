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
	// Ids are dense: the next new value takes id 2, and the capacity of 16
	// admits exactly 16 values.
	for i := 2; i < 16; i++ {
		if id, err := d.Encode(fmt.Sprint("v", i)); err != nil || id != uint32(i) {
			t.Fatalf("Encode(v%d) = %d, %v, want %d", i, id, err, i)
		}
	}
	if _, err := d.Encode("one too many"); !errors.Is(err, ErrFull) {
		t.Fatalf("17th value = %v, want ErrFull", err)
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
	// Ids must dedupe across goroutines: 500 values, 500 distinct ids, each
	// decoding back to its value, and none assigned past them.
	ids := make(map[uint32]bool)
	for i := 0; i < 500; i++ {
		v := fmt.Sprintf("val-%d", i)
		id, err := d.Lookup(v)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", v, err)
		}
		if s, err := d.Decode(id); err != nil || s != v {
			t.Fatalf("Decode(%d) = %q, %v, want %q", id, s, err, v)
		}
		ids[id] = true
	}
	if len(ids) != 500 {
		t.Fatalf("%d distinct ids for 500 values", len(ids))
	}
	if _, err := d.Decode(500); !errors.Is(err, ErrUnknown) {
		t.Fatalf("Decode(500) = %v, want ErrUnknown: ids must dedupe across goroutines", err)
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
	d3 := s.Add("app", 32)
	if d3 == d1 || s.Get("region") != d1 || s.Get("app") != d3 {
		t.Fatal("Get returned wrong dictionary")
	}
	// The columns' dictionaries are independent, and the first Add's
	// capacity holds: region admits 16 values, not 99.
	if id, _ := d3.Encode("checkout"); id != 0 {
		t.Fatalf("app's first id = %d", id)
	}
	if _, err := d1.Lookup("checkout"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("region sees app's value: %v", err)
	}
	for i := 0; i < 16; i++ {
		if _, err := d1.Encode(fmt.Sprint("r", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d1.Encode("r16"); !errors.Is(err, ErrFull) {
		t.Fatalf("region's 17th value = %v, want ErrFull", err)
	}
}
