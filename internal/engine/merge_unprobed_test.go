package engine

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"cubrick/internal/brick"
)

// TestMergeIntoUnprobedPartial: a partial straight from Scheduler.Run has
// no key index yet. Merging a smaller partial into it — by Merge or by
// MergeWire, on the packed-key path (arity 1) and the hashed-key path
// (arity 3) — builds the index for every group the slab already holds, not
// only for the incoming count, and ends bit-identical to the same merge
// into a fresh partial.
func TestMergeIntoUnprobedPartial(t *testing.T) {
	schema := brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "a", Max: 128, Buckets: 4},
			{Name: "b", Max: 4, Buckets: 1},
			{Name: "c", Max: 4, Buckets: 1},
		},
		Metrics: []brick.Metric{{Name: "m"}},
	}
	load := func(rows [][3]uint32) *brick.Store {
		st, err := brick.NewStore(schema)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rows {
			if err := st.Insert(r[:], []float64{float64(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	var big [][3]uint32
	for a := uint32(0); a < 100; a++ {
		big = append(big, [3]uint32{a, a % 4, a % 3})
	}
	// One group the big side holds and one it does not.
	big1, small := load(big), load([][3]uint32{{7, 3, 1}, {120, 2, 3}})

	for _, groupBy := range [][]string{{"a"}, {"a", "b", "c"}} {
		q := &Query{
			Aggregates: []Aggregate{{Func: Sum, Metric: "m"}, {Func: Count}, {Func: CountDistinct, Metric: "b"}},
			GroupBy:    groupBy,
		}
		run := func(st *brick.Store) *Partial {
			p, _, err := runPartial(NewScheduler(st, SchedulerConfig{}), context.Background(), q, Opts{Unshared: true})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		marshal := func(p *Partial) []byte {
			blob, err := p.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			return blob
		}
		for _, entry := range []string{"Merge", "MergeWire"} {
			t.Run(fmt.Sprintf("arity=%d/%s", len(groupBy), entry), func(t *testing.T) {
				into, other := run(big1), run(small)
				if into.Groups() != 100 || other.Groups() != 2 {
					t.Fatalf("groups %d and %d, want 100 and 2", into.Groups(), other.Groups())
				}
				otherBlob := marshal(other)
				// The reference: the same two merges into a fresh partial.
				want := NewPartial(q)
				if err := MergeWire(want, marshal(into)); err != nil {
					t.Fatal(err)
				}
				if err := MergeWire(want, otherBlob); err != nil {
					t.Fatal(err)
				}

				done := make(chan error, 1)
				go func() {
					if entry == "Merge" {
						done <- into.Merge(other)
					} else {
						done <- MergeWire(into, otherBlob)
					}
				}()
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("merge into an unprobed 100-group partial did not return")
				}
				if into.Groups() != 101 {
					t.Fatalf("%d groups after the merge, want 101", into.Groups())
				}
				if got, want := marshal(into), marshal(want); !bytes.Equal(got, want) {
					t.Fatalf("merge into the unprobed partial differs from the fresh merge:\n got %x\nwant %x", got, want)
				}
			})
		}
	}
}
