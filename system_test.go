package repro

import (
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
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
		VerifyData: true,
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

// TestSystemTelemetry: a registry set once in SystemConfig.Cluster records
// every layer of the system — the multicast protocol's phase events and
// counters, the baselines' op spans, the workload's phase spans and the
// transport's histograms — with no per-algorithm option.
func TestSystemTelemetry(t *testing.T) {
	reg := telemetry.New()
	sys, err := NewSystem(SystemConfig{Hosts: 4, Topology: "star",
		Cluster: cluster.Config{Verbs: verbs.Config{Metrics: reg}}})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorkload("fsdp-inc", WorkloadConfig{Nodes: 4, Layers: 1, ShardBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunWorkload(w); err != nil {
		t.Fatal(err)
	}
	alg, err := NewAlgorithm(sys, "ring-allgather", AlgorithmOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alg.Run(Op{Kind: Allgather, Bytes: 16 << 10}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	got := map[string]bool{}
	for _, m := range snap.Metrics {
		got[m.Key] = true
	}
	for _, key := range []string{"core/phase_total{phase=done}", "coll/ops_total{kind=inc-reduce-scatter}",
		"coll/ops_total{kind=ring-allgather}", "workload/phases_total{job=fsdp}"} {
		if !got[key] {
			t.Errorf("no %s recorded", key)
		}
	}
	tracks := map[string]bool{}
	for _, sp := range snap.Spans {
		tracks[sp.Track] = true
	}
	if !tracks["coll"] || !tracks["workload/fsdp"] {
		t.Errorf("span tracks %v, want coll and workload/fsdp", tracks)
	}
	if snap.Timeline() == "(no events)\n" {
		t.Error("the multicast Allgather recorded no phase events")
	}
}

func TestSystemFabricConfigPropagates(t *testing.T) {
	sys, err := NewSystem(SystemConfig{
		Hosts:  4,
		Fabric: fabric.Config{LinkBandwidth: 12.5e9, ReorderJitter: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sys.Fabric.Config()
	if cfg.LinkBandwidth != 12.5e9 || cfg.ReorderJitter != 300 {
		t.Fatalf("fabric config lost: %+v", cfg)
	}
}

func TestSystemDeterminism(t *testing.T) {
	run := func() int64 {
		sys, err := NewSystem(SystemConfig{Hosts: 8, Topology: "star", Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		comm, err := sys.NewCommunicator(sys.Hosts(), core.Config{})
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

// TestSharedGraphConcurrentBuilds: topology and routing are built once and
// shared read-only, so sweep workers build fabrics on one graph at the same
// time. Four goroutines each build a stack and run a 32-host Allgather — on
// the process-wide testbed through NewSystem, and on a fresh copy of it
// whose first Routing() call the goroutines race for. Run under -race; the
// results must also agree, since sharing may not leak state between runs.
func TestSharedGraphConcurrentBuilds(t *testing.T) {
	fresh, err := topology.TwoLevelFatTree(topology.FatTreeSpec{Hosts: 188, HostsPerLeaf: 16, Spines: 6, TrunkLinks: 3})
	if err != nil {
		t.Fatal(err)
	}
	builders := map[string]func() (*System, error){
		"process-wide testbed": func() (*System, error) {
			return NewSystem(SystemConfig{Topology: "testbed188", Seed: 7})
		},
		"fresh graph, first Routing call included": func() (*System, error) {
			eng := sim.NewEngine(7)
			f := fabric.New(eng, fresh, fabric.Config{})
			return &System{Engine: eng, Graph: fresh, Fabric: f, Cluster: cluster.New(f, cluster.Config{})}, nil
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			const workers = 4
			var wg sync.WaitGroup
			graphs := make([]*topology.Graph, workers)
			durations := make([]sim.Time, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					sys, err := build()
					if err != nil {
						t.Error(err)
						return
					}
					comm, err := sys.NewCommunicator(sys.Hosts()[:32], core.Config{})
					if err != nil {
						t.Error(err)
						return
					}
					res, err := runAllgather(comm, 64<<10)
					if err != nil {
						t.Error(err)
						return
					}
					graphs[w], durations[w] = sys.Graph, res.Duration()
				}(w)
			}
			wg.Wait()
			for w := 1; w < workers; w++ {
				if graphs[w] != graphs[0] {
					t.Fatalf("worker %d built its own graph", w)
				}
				if durations[w] != durations[0] {
					t.Fatalf("worker %d: allgather took %v, worker 0 %v", w, durations[w], durations[0])
				}
			}
		})
	}
}
