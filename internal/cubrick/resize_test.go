package cubrick

import (
	"context"
	"testing"
)

func TestAddHostTakesLoadViaBalancer(t *testing.T) {
	d := testDeployment(t)
	// Fill every existing host with shards so the added host is the
	// unique cold spot the balancer targets.
	var want float64
	for _, tbl := range []string{"m", "m2", "m3", "m4"} {
		d.CreateTable(tbl, smallSchema())
		w := loadRows(t, d, tbl, 800)
		if tbl == "m" {
			want = w
		}
	}
	svc := ServiceName("east")

	node, err := d.AddHost("east", "east-rX", "east-rX-hNew")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(node.Shards()); got != 0 {
		t.Fatalf("new host starts with %d shards, want 0", got)
	}
	srvs, _ := d.SM.Servers(svc)
	found := false
	for _, s := range srvs {
		if s == "east-rX-hNew" {
			found = true
		}
	}
	if !found {
		t.Fatal("new host not registered with SM")
	}

	// Balance: the empty host is the coldest, so it receives shards.
	if err := d.SM.CollectMetrics(svc); err != nil {
		t.Fatal(err)
	}
	moved, err := d.SM.BalanceOnce(svc)
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("balancer moved nothing to the new empty host")
	}
	d.Clock.Advance(d.Config.PropagationWait * 2)
	if len(node.Shards()) == 0 {
		t.Fatal("new host still empty after balancing")
	}
	// Queries stay exact throughout.
	res, err := d.Query(context.Background(), "east", "m", sumQuery(), 0)
	if err != nil || res.Rows[0][0] != want {
		t.Fatalf("query after resize = %v, %v; want %v", res, err, want)
	}
}

func TestAddHostErrors(t *testing.T) {
	d := testDeployment(t)
	if _, err := d.AddHost("mars", "r", "h"); err == nil {
		t.Fatal("unknown region accepted")
	}
	existing := d.Fleet.Hosts()[0].Name
	if _, err := d.AddHost("east", "r", existing); err == nil {
		t.Fatal("duplicate host accepted")
	}
}

func TestAddHostCarriesReplicatedTables(t *testing.T) {
	d := setupJoin(t) // has replicated "apps" with 20 rows
	node, err := d.AddHost("east", "east-rX", "east-rX-hNew")
	if err != nil {
		t.Fatal(err)
	}
	st, err := node.ReplicatedStore("apps")
	if err != nil || st.Rows() != 20 {
		t.Fatalf("new host replica = %v, %v; want 20 rows", st, err)
	}
}

func TestRemoveHostDrainsAndQueriesSurvive(t *testing.T) {
	cfg := DefaultDeploymentConfig()
	cfg.RacksPerRegion = 3
	cfg.HostsPerRack = 4
	cfg.Policy.InitialPartitions = 4
	cfg.Transport.RequestFailureProb = 0
	d, err := Open(cfg, epoch)
	if err != nil {
		t.Fatal(err)
	}
	d.CreateTable("m", smallSchema())
	want := loadRows(t, d, "m", 400)

	victim := d.Fleet.Region("east")[0].Name
	if err := d.RemoveHost(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Fleet.Host(victim); err == nil {
		t.Fatal("host still in fleet")
	}
	if _, err := d.Node(victim); err == nil {
		t.Fatal("node still registered")
	}
	srvs, _ := d.SM.Servers(ServiceName("east"))
	for _, s := range srvs {
		if s == victim {
			t.Fatal("SM still lists the removed server")
		}
	}
	res, err := d.Query(context.Background(), "east", "m", sumQuery(), 0)
	if err != nil || res.Rows[0][0] != want {
		t.Fatalf("query after removal = %v, %v; want %v", res, err, want)
	}
}

func TestRemoveUnknownHost(t *testing.T) {
	d := testDeployment(t)
	if err := d.RemoveHost("ghost"); err == nil {
		t.Fatal("removing unknown host succeeded")
	}
}
