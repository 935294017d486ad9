package cubrick

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"cubrick/internal/core"
	"cubrick/internal/netexec"
)

// fence sets (or lifts) a partition's fence through the /fence endpoint of
// a host's worker, over the deployment's memTransport, as a migration's
// cutover would.
func fence(t *testing.T, d *Deployment, host, part string, on bool) {
	t.Helper()
	cl := netexec.Client{BaseURL: "http://" + host, HTTP: d.wire}
	if err := cl.Fence(context.Background(), part, on); err != nil {
		t.Fatal(err)
	}
}

// fenceOwner fences (or unfences) one partition of a table on its owner in
// a region.
func fenceOwner(t *testing.T, d *Deployment, region, table string, p int, on bool) {
	t.Helper()
	a, err := d.SM.Assignment(ServiceName(region), d.Catalog.ShardOf(table, p))
	if err != nil {
		t.Fatal(err)
	}
	fence(t, d, a.Primary(), core.PartitionName(table, p), on)
}

// In-process loads reach a partition only through its owner's worker, so
// a fence set there turns them away with a retryable error, and the same
// load lands once the fence lifts.
func TestLoadMeetsWorkerFence(t *testing.T) {
	d := testDeployment(t)
	info, err := d.CreateTable("t", smallSchema())
	if err != nil {
		t.Fatal(err)
	}
	dims, mets := [][]uint32{{3, 7}}, [][]float64{{5}}
	p := core.RouteRow(dims[0], info.Partitions)
	// The first region's copy is written first, so a rejected load leaves
	// no row in any region.
	region := d.Config.Regions[0]
	fenceOwner(t, d, region, "t", p, true)
	err = d.Load("t", dims, mets)
	if err == nil {
		t.Fatal("load into a fenced partition succeeded")
	}
	if c := netexec.ClassifyError(err); c != netexec.Retryable {
		t.Fatalf("fenced load error %v classified %v, want Retryable", err, c)
	}
	fenceOwner(t, d, region, "t", p, false)
	if err := d.Load("t", dims, mets); err != nil {
		t.Fatal(err)
	}
	for _, r := range d.Config.Regions {
		res, err := d.Query(context.Background(), r, "t", sumQuery(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0] != 5 {
			t.Fatalf("%s sum = %v, want [[5]]", r, res.Rows)
		}
	}
}

// Load writes partitions in order and each partition's regions in order,
// and undoes nothing, so when one region's owner turns a batch away, the
// regions before it keep that batch and every region keeps the partitions
// before it; the error names both.
func TestPartialLoadNamesRegionsReached(t *testing.T) {
	d := testDeployment(t)
	info, err := d.CreateTable("t", smallSchema())
	if err != nil {
		t.Fatal(err)
	}
	// Two rows that route to two partitions, first < last; the loop adds
	// the second row.
	dims, mets := [][]uint32{{3, 7}}, [][]float64{{5}, {6}}
	first := core.RouteRow(dims[0], info.Partitions)
	last := first
	for ds := uint32(0); last == first; ds++ {
		row := []uint32{ds, 7}
		if p := core.RouteRow(row, info.Partitions); p != first {
			dims, last = append(dims, row), p
		}
	}
	first, last = min(first, last), max(first, last)
	fenceOwner(t, d, "west", "t", last, true)
	err = d.Load("t", dims, mets)
	if err == nil {
		t.Fatal("load into a partition fenced in west succeeded")
	}
	want := fmt.Sprintf("stopped at %s, taken in [east], not in west; partitions before it, taken in every region: [%s]",
		core.PartitionName("t", last), core.PartitionName("t", first))
	if msg := err.Error(); !strings.Contains(msg, want) {
		t.Fatalf("partial load error %q does not say %q", msg, want)
	}
	if c := netexec.ClassifyError(err); c != netexec.Retryable {
		t.Fatalf("partial load error %v classified %v, want Retryable", err, c)
	}
	// Fenced in east as well, the last partition's batch reached no region.
	fenceOwner(t, d, "east", "t", last, true)
	want = fmt.Sprintf("stopped at %s, taken in [], not in east", core.PartitionName("t", last))
	if err := d.Load("t", dims, mets); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("partial load error %v does not say %q", err, want)
	}
}

// A fence does not outlive its partition: dropping the table drops the
// partition through the worker, which clears the fence, so the table
// created again under the same name takes loads.
func TestDroppedPartitionLeavesNoFence(t *testing.T) {
	d := testDeployment(t)
	info, err := d.CreateTable("t", smallSchema())
	if err != nil {
		t.Fatal(err)
	}
	dims, mets := [][]uint32{{3, 7}}, [][]float64{{5}}
	p := core.RouteRow(dims[0], info.Partitions)
	for _, region := range d.Config.Regions {
		fenceOwner(t, d, region, "t", p, true)
	}
	if err := d.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("t", smallSchema()); err != nil {
		t.Fatal(err)
	}
	if err := d.Load("t", dims, mets); err != nil {
		t.Fatalf("load into the re-created table: %v", err)
	}
}

// Reset, which a host that rejoins empty goes through, clears fences too:
// the replay rebuilds a replica that was fenced before the reset.
func TestResetLeavesNoFence(t *testing.T) {
	d := setupJoin(t)
	host := d.Fleet.Region("east")[0].Name
	fence(t, d, host, "apps", true)
	node, _ := d.Node(host)
	node.Reset()
	if err := d.ReplayReplicated(host); err != nil {
		t.Fatalf("replay after reset: %v", err)
	}
}

// A replicated batch is all or nothing on every replica and in the log: a
// batch with an out-of-domain row leaves no row anywhere, so a host that
// rejoins later replays nothing that was rejected.
func TestRejectedReplicatedBatchLeavesNoRow(t *testing.T) {
	d := testDeployment(t)
	if _, err := d.CreateReplicatedTable("apps", dimTableSchema()); err != nil {
		t.Fatal(err)
	}
	dims := [][]uint32{{1, 1}, {2, 99}, {3, 3}} // team 99 is out of domain
	if err := d.LoadReplicated("apps", dims, make([][]float64, len(dims))); err == nil {
		t.Fatal("batch with an out-of-domain row accepted")
	}
	for _, n := range d.Nodes() {
		st, err := n.ReplicatedStore("apps")
		if err != nil {
			t.Fatal(err)
		}
		if st.Rows() != 0 {
			t.Fatalf("replica on %s holds %d rows of a rejected batch", n.Host().Name, st.Rows())
		}
	}
	if rows := len(d.replicatedLog["apps"].dims); rows != 0 {
		t.Fatalf("replay log holds %d rows of a rejected batch", rows)
	}
}
