package netexec

import (
	"context"
	"cubrick/internal/partition"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestDictSyncPlane drives the /dict wire plane end-to-end: a source worker
// assigns ids, a target catches up via version negotiation + delta push, and
// incremental deltas after further assignment converge the replicas again.
func TestDictSyncPlane(t *testing.T) {
	src := NewWorker(partition.Config{})
	dst := NewWorker(partition.Config{})
	srcSrv := httptest.NewServer(src.Handler())
	defer srcSrv.Close()
	dstSrv := httptest.NewServer(dst.Handler())
	defer dstSrv.Close()
	srcCl := &Client{BaseURL: srcSrv.URL}
	dstCl := &Client{BaseURL: dstSrv.URL}
	ctx := context.Background()

	for _, cl := range []*Client{srcCl, dstCl} {
		if err := cl.CreatePartition(ctx, "p", testSchema()); err != nil {
			t.Fatal(err)
		}
	}

	// Source assigns some ids on the "app" dimension (capacity from schema).
	sd, err := src.EnsureDict("p", "app", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"ads", "feed", "search"} {
		if _, err := sd.Encode(v); err != nil {
			t.Fatal(err)
		}
	}

	versions, err := srcCl.DictVersions(ctx, "p")
	if err != nil {
		t.Fatal(err)
	}
	if versions["app"] != 3 {
		t.Fatalf("source versions = %v, want app:3", versions)
	}

	// Full catch-up from zero.
	blob, to, err := srcCl.DictDelta(ctx, "p", "app", 0)
	if err != nil {
		t.Fatal(err)
	}
	if to != 3 {
		t.Fatalf("delta brings receiver to %d, want 3", to)
	}
	got, err := dstCl.PushDictDelta(ctx, "p", "app", 0, blob)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("push version = %d, want 3", got)
	}
	// Re-pushing the same delta is idempotent.
	if got, err = dstCl.PushDictDelta(ctx, "p", "app", 0, blob); err != nil || got != 3 {
		t.Fatalf("idempotent re-push: version=%d err=%v", got, err)
	}

	// Incremental delta after more assignment.
	if _, err := sd.Encode("groups"); err != nil {
		t.Fatal(err)
	}
	blob, to, err = srcCl.DictDelta(ctx, "p", "app", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dstCl.PushDictDelta(ctx, "p", "app", 0, blob); err != nil {
		t.Fatal(err)
	}
	if to != 4 {
		t.Fatalf("incremental delta version = %d, want 4", to)
	}
	dd := dst.Dicts("p").Get("app")
	if dd == nil || dd.Version() != 4 {
		t.Fatalf("target dictionary missing or stale: %v", dd)
	}
	for id, want := range []string{"ads", "feed", "search", "groups"} {
		v, err := dd.Decode(uint32(id))
		if err != nil || v != want {
			t.Fatalf("target id %d = %q (%v), want %q", id, v, err, want)
		}
	}

	// A forged delta (same ids, different values) is rejected whole.
	forged := append([]byte(nil), blob...)
	for i := range forged[4:] {
		if forged[4+i] == 'g' {
			forged[4+i] = 'X'
		}
	}
	if _, err := dstCl.PushDictDelta(ctx, "p", "app", 0, forged); err == nil {
		t.Fatal("forged delta accepted")
	} else if !strings.Contains(err.Error(), "forges") && !strings.Contains(err.Error(), "400") {
		t.Fatalf("forged delta error = %v", err)
	}

	// Unknown column 404s on GET.
	if _, _, err := srcCl.DictDelta(ctx, "p", "nope", 0); err == nil {
		t.Fatal("delta for unknown dictionary succeeded")
	}
}

// TestEnsureDictCapacity pins the capacity resolution order: explicit >
// schema dimension domain > worker default > error.
func TestEnsureDictCapacity(t *testing.T) {
	w := NewWorker(partition.Config{})
	if err := w.AddPartition("p", testSchema()); err != nil {
		t.Fatal(err)
	}
	d, err := w.EnsureDict("p", "app", 7)
	if err != nil || d.Capacity() != 7 {
		t.Fatalf("explicit capacity: %v cap=%d", err, d.Capacity())
	}
	d, err = w.EnsureDict("p", "ds", 0)
	if err != nil || d.Capacity() != 30 {
		t.Fatalf("schema capacity: %v, want 30", err)
	}
	if _, err := w.EnsureDict("p", "label", 0); err == nil {
		t.Fatal("no-capacity column accepted without worker default")
	}
	w.DictCapacity = 1000
	d, err = w.EnsureDict("p", "label", 0)
	if err != nil || d.Capacity() != 1000 {
		t.Fatalf("worker default capacity: %v, want 1000", err)
	}
}
