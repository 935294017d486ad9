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
		st := n.Parts().FoldStats()
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
	node := DefaultNodeConfig()
	node.MaxConcurrent = 1
	d := testDeploymentNode(t, node)
	if _, err := d.CreateTable("t", smallSchema()); err != nil {
		t.Fatal(err)
	}
	loadRows(t, d, "t", 200)

	var tickets []*admission.Ticket
	for _, n := range d.Nodes() {
		tkt, err := n.Parts().Admission().Admit(t.Context(), "", 0)
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
