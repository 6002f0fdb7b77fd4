package repro

import (
	"testing"

	"repro/internal/coll"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/verbs"
)

// runAllgather blocks on the communicator's non-blocking Allgather through
// the shared driver.
func runAllgather(c *core.Communicator, n int) (*core.Result, error) {
	return collective.RunBlocking("mcast-allgather", c.Engine(), func(done func(*core.Result)) error {
		return c.StartAllgather(n, done)
	})
}

func TestNewSystemDefaults(t *testing.T) {
	sys, err := NewSystem(SystemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sys.Hosts()); got != 16 {
		t.Fatalf("default hosts = %d, want 16", got)
	}
	if sys.Engine == nil || sys.Fabric == nil || sys.Cluster == nil {
		t.Fatal("system missing components")
	}
}

func TestNewSystemTopologies(t *testing.T) {
	for _, topo := range []string{"fattree2", "fattree3", "star"} {
		sys, err := NewSystem(SystemConfig{Hosts: 8, Topology: topo})
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		if len(sys.Hosts()) != 8 {
			t.Fatalf("%s: hosts = %d", topo, len(sys.Hosts()))
		}
	}
	sys, err := NewSystem(SystemConfig{Topology: "testbed188"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Hosts()) != 188 {
		t.Fatalf("testbed hosts = %d", len(sys.Hosts()))
	}
	if _, err := NewSystem(SystemConfig{Topology: "torus"}); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestSystemEndToEndCollectives(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Hosts: 8, HostsPerLeaf: 4})
	if err != nil {
		t.Fatal(err)
	}
	comm, err := sys.NewCommunicator(sys.Hosts(), core.Config{
		Transport: verbs.UD, VerifyData: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runAllgather(comm, 100000); err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
	team, err := sys.NewTeam(sys.Hosts(), coll.Config{VerifyData: true})
	if err != nil {
		t.Fatal(err)
	}
	ring := func(done func(*coll.Result)) error { return team.StartRingAllgather(50000, done) }
	if _, err := collective.RunBlocking("ring-allgather", team.Engine(), ring); err != nil {
		t.Fatal(err)
	}
	if err := team.VerifyAllgather(50000); err != nil {
		t.Fatal(err)
	}
}

func TestSystemFabricConfigPropagates(t *testing.T) {
	sys, err := NewSystem(SystemConfig{
		Hosts:  4,
		Fabric: fabric.Config{LinkBandwidth: 12.5e9, MTU: 2048},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sys.Fabric.Config()
	if cfg.LinkBandwidth != 12.5e9 || cfg.MTU != 2048 {
		t.Fatalf("fabric config lost: %+v", cfg)
	}
}

func TestSystemDeterminism(t *testing.T) {
	run := func() int64 {
		sys, err := NewSystem(SystemConfig{Hosts: 8, Topology: "star", Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		comm, err := sys.NewCommunicator(sys.Hosts(), core.Config{Transport: verbs.UD})
		if err != nil {
			t.Fatal(err)
		}
		res, err := runAllgather(comm, 1<<18)
		if err != nil {
			t.Fatal(err)
		}
		return int64(res.Duration())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed runs diverged: %d vs %d ns", a, b)
	}
}
