package cluster

import (
	"testing"

	"repro/internal/dpa"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topology"
)

func testCluster(t *testing.T) *Cluster {
	t.Helper()
	eng := sim.NewEngine(1)
	g := topology.Star(4)
	f := fabric.New(eng, g, fabric.Config{})
	return New(f, Config{})
}

func TestNodeIsSingletonPerHost(t *testing.T) {
	cl := testCluster(t)
	h := cl.Fabric().Graph().Hosts()[0]
	a, b := cl.Node(h), cl.Node(h)
	if a != b {
		t.Fatal("Node() returned distinct runtimes for one host")
	}
	if a.Ctx == nil || a.CPU == nil {
		t.Fatal("node missing context or CPU")
	}
}

func TestDistinctHostsDistinctNodes(t *testing.T) {
	cl := testCluster(t)
	hosts := cl.Fabric().Graph().Hosts()
	if cl.Node(hosts[0]) == cl.Node(hosts[1]) {
		t.Fatal("two hosts share a node runtime")
	}
	if cl.Node(hosts[0]).Ctx == cl.Node(hosts[1]).Ctx {
		t.Fatal("two hosts share a verbs context")
	}
}

func TestDPALazyInstantiation(t *testing.T) {
	cl := testCluster(t)
	n := cl.Node(cl.Fabric().Graph().Hosts()[0])
	if n.dpa != nil {
		t.Fatal("DPA instantiated eagerly")
	}
	d := n.DPA()
	if d == nil || d.Capacity() != 256 {
		t.Fatal("DPA wrong")
	}
	if n.DPA() != d {
		t.Fatal("DPA not cached")
	}
}

func TestDefaultCPUCores(t *testing.T) {
	cl := testCluster(t)
	n := cl.Node(cl.Fabric().Graph().Hosts()[0])
	// A CPU core runs one hardware thread, so capacity counts cores.
	if n.CPU.Capacity() != 24 {
		t.Fatalf("default CPU cores = %d, want 24", n.CPU.Capacity())
	}
}

func TestRxArbitersSharedAndValidated(t *testing.T) {
	cl := testCluster(t)
	n := cl.Node(cl.Fabric().Graph().Hosts()[0])
	a1, err := n.RxArbiters(4, false, dpa.CPUUDRecv)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1) != 4 {
		t.Fatalf("arbiters = %d", len(a1))
	}
	a2, err := n.RxArbiters(4, false, dpa.CPUUDRecv)
	if err != nil {
		t.Fatal(err)
	}
	if a1[0] != a2[0] {
		t.Fatal("second caller did not get the shared arbiters")
	}
	if _, err := n.RxArbiters(8, false, dpa.CPUUDRecv); err == nil {
		t.Fatal("mismatched count accepted")
	}
	if _, err := n.RxArbiters(4, false, dpa.CPURCRecv); err == nil {
		t.Fatal("mismatched profile accepted")
	}
	if _, err := n.RxArbiters(4, true, dpa.CPUUDRecv); err == nil {
		t.Fatal("mismatched substrate (CPU vs DPA) accepted")
	}
}

func TestRxArbitersOnDPAMismatchRejected(t *testing.T) {
	// The substrate choice is part of the geometry: a host whose arbiters
	// run on the DPA cannot hand them to a caller expecting CPU arbiters.
	cl := testCluster(t)
	n := cl.Node(cl.Fabric().Graph().Hosts()[0])
	a, err := n.RxArbiters(2, true, dpa.DPAUDRecv)
	if err != nil || len(a) != 2 {
		t.Fatalf("DPA arbiters: %v (%d)", err, len(a))
	}
	if _, err := n.RxArbiters(2, false, dpa.DPAUDRecv); err == nil {
		t.Fatal("CPU request against DPA arbiters accepted")
	}
	b, err := n.RxArbiters(2, true, dpa.DPAUDRecv)
	if err != nil || b[0] != a[0] {
		t.Fatalf("matching DPA request not shared: %v", err)
	}
}
