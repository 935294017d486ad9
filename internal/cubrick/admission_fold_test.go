package cubrick

import (
	"errors"
	"testing"

	"cubrick/internal/admission"
)

// TestNodeFoldScansDefaultOn: the production node config routes partial
// execution through per-store scan schedulers, and a deployment query
// shows up in the aggregated fold stats as solo passes.
func TestNodeFoldScansDefaultOn(t *testing.T) {
	d := testDeployment(t)
	if _, err := d.CreateTable("t", smallSchema()); err != nil {
		t.Fatal(err)
	}
	want := loadRows(t, d, "t", 500)
	res, err := d.Query("east", "t", sumQuery(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0]; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var solo int64
	for _, n := range d.Nodes() {
		st := n.FoldStats()
		solo += st.Solo
		if st.Attached != 0 || st.CatchupBricks != 0 {
			t.Fatalf("sequential query folded: %+v", st)
		}
	}
	if solo == 0 {
		t.Fatal("no scheduler passes recorded; FoldScans default lost")
	}
}

// TestNodeAdmissionShedsQuery: a node at its admission limit sheds its
// partial, the shed stays matchable as ErrQueueFull through the region
// error wrap, and releasing the slot restores service.
func TestNodeAdmissionShedsQuery(t *testing.T) {
	d := testDeployment(t)
	if _, err := d.CreateTable("t", smallSchema()); err != nil {
		t.Fatal(err)
	}
	loadRows(t, d, "t", 200)

	var tickets []*admission.Ticket
	for _, n := range d.Nodes() {
		ac := admission.New(admission.Config{MaxConcurrent: 1, QueueDepth: 0})
		n.SetAdmission(ac)
		tkt, err := ac.Admit(t.Context(), "", 0)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tkt)
	}
	_, err := d.Query("east", "t", sumQuery(), 0)
	if !errors.Is(err, admission.ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull through region wrap", err)
	}
	if !errors.Is(err, ErrRegionUnavailable) {
		t.Fatalf("err = %v, want ErrRegionUnavailable wrap (retryable by proxy)", err)
	}
	for _, tkt := range tickets {
		tkt.Release()
	}
	if _, err := d.Query("east", "t", sumQuery(), 0); err != nil {
		t.Fatalf("post-release query: %v", err)
	}
}

// TestNodeDropShardForgetsScheduler: dropping a shard must drop its stores'
// scan schedulers too, or every shard migrated off a node would stay
// reachable — store, bricks and all — through n.scheds forever.
func TestNodeDropShardForgetsScheduler(t *testing.T) {
	d := testDeployment(t)
	if _, err := d.CreateTable("t", smallSchema()); err != nil {
		t.Fatal(err)
	}
	loadRows(t, d, "t", 200)
	if _, err := d.Query("east", "t", sumQuery(), 0); err != nil {
		t.Fatal(err)
	}
	schedulers := func(n *Node) int {
		n.schedMu.Lock()
		defer n.schedMu.Unlock()
		return len(n.scheds)
	}
	created := 0
	for _, n := range d.Nodes() {
		created += schedulers(n)
		n.mu.Lock()
		var shards []int64
		for sh := range n.shards {
			shards = append(shards, sh)
		}
		n.mu.Unlock()
		for _, sh := range shards {
			if err := n.DropShard(sh); err != nil {
				t.Fatal(err)
			}
		}
		if left := schedulers(n); left != 0 {
			t.Fatalf("%d schedulers survive dropping every shard", left)
		}
	}
	if created == 0 {
		t.Fatal("the query created no scheduler; the test checks nothing")
	}
}
