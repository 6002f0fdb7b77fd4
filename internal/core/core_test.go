package core

import (
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/verbs"
)

// The blocking forms the tests use: one Start* call driven to completion
// by the shared collective.RunBlocking.
func runAllgather(c *Communicator, n int) (*Result, error) {
	return collective.RunBlocking("allgather", c.eng, func(done func(*Result)) error { return c.StartAllgather(n, done) })
}

func runBroadcast(c *Communicator, root, n int) (*Result, error) {
	return collective.RunBlocking("broadcast", c.eng, func(done func(*Result)) error { return c.StartBroadcast(root, n, done) })
}

func runBarrier(c *Communicator) (*Result, error) {
	return collective.RunBlocking("barrier", c.eng, c.StartBarrier)
}

// newComm builds a communicator on a cluster of its own over f.
func newComm(f *fabric.Fabric, hosts []topology.NodeID, cfg Config) (*Communicator, error) {
	return NewCommunicatorOn(cluster.New(f, cluster.Config{}), hosts, cfg)
}

// buildComm assembles a fat-tree fabric with p ranks and a communicator.
func buildComm(t *testing.T, p int, fcfg fabric.Config, ccfg Config) (*sim.Engine, *fabric.Fabric, *Communicator) {
	t.Helper()
	eng := sim.NewEngine(42)
	var g *topology.Graph
	if p <= 4 {
		g = topology.Star(p)
	} else {
		var err error
		g, err = topology.TwoLevelFatTree(topology.FatTreeSpec{
			Hosts: p, HostsPerLeaf: 4, Spines: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	f := fabric.New(eng, g, fcfg)
	comm, err := newComm(f, g.Hosts()[:p], ccfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, f, comm
}

func TestBroadcastUDVerified(t *testing.T) {
	_, _, comm := buildComm(t, 4, fabric.Config{}, Config{Transport: verbs.UD, VerifyData: true})
	res, err := runBroadcast(comm, 0, 50000) // 13 chunks, last short
	if err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
	if res.Kind != "broadcast" || res.Ranks != 4 {
		t.Fatalf("result meta wrong: %+v", res)
	}
	if res.Duration() <= 0 {
		t.Fatal("non-positive duration")
	}
	if res.MaxRecovered() != 0 {
		t.Fatalf("recovery triggered on a lossless fabric: %d", res.MaxRecovered())
	}
}

func TestBroadcastNonZeroRoot(t *testing.T) {
	_, _, comm := buildComm(t, 4, fabric.Config{}, Config{Transport: verbs.UD, VerifyData: true})
	if _, err := runBroadcast(comm, 2, 12345); err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastRootOutOfRange(t *testing.T) {
	_, _, comm := buildComm(t, 3, fabric.Config{}, Config{Transport: verbs.UD})
	if err := comm.StartBroadcast(3, 100, nil); err == nil {
		t.Fatal("root 3 of 3 accepted")
	}
	if err := comm.StartBroadcast(-1, 100, nil); err == nil {
		t.Fatal("negative root accepted")
	}
}

func TestAllgatherUDVerified(t *testing.T) {
	_, _, comm := buildComm(t, 4, fabric.Config{}, Config{Transport: verbs.UD, VerifyData: true})
	res, err := runAllgather(comm, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
	for _, s := range res.PerRank {
		if s.BytesReceived != 3*20000 {
			t.Fatalf("rank %d received %d bytes, want %d", s.Rank, s.BytesReceived, 3*20000)
		}
		if s.RNRDrops != 0 {
			t.Fatalf("rank %d saw %d RNR drops after the RNR barrier", s.Rank, s.RNRDrops)
		}
	}
}

func TestAllgatherUCVerified(t *testing.T) {
	_, _, comm := buildComm(t, 4, fabric.Config{},
		Config{Transport: verbs.UC, ChunkBytes: 16384, VerifyData: true})
	if _, err := runAllgather(comm, 100000); err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherSubgroups(t *testing.T) {
	_, _, comm := buildComm(t, 8, fabric.Config{},
		Config{Transport: verbs.UD, Subgroups: 4, VerifyData: true})
	if _, err := runAllgather(comm, 65536); err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
	// Each subgroup worker must have processed some chunks.
	for i := 0; i < comm.Size(); i++ {
		for s, w := range comm.Rank(i).rxWkrs {
			if w.Processed == 0 {
				t.Fatalf("rank %d subgroup %d worker idle", i, s)
			}
		}
	}
}

func TestAllgatherParallelChains(t *testing.T) {
	_, _, comm := buildComm(t, 8, fabric.Config{},
		Config{Transport: verbs.UD, Chains: 2, VerifyData: true})
	if _, err := runAllgather(comm, 16384); err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
}

func TestChainsReduceScheduleTime(t *testing.T) {
	run := func(chains int) sim.Time {
		_, _, comm := buildComm(t, 8, fabric.Config{},
			Config{Transport: verbs.UD, Chains: chains})
		res, err := runAllgather(comm, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		return res.Duration()
	}
	serial, parallel := run(1), run(4)
	if parallel >= serial {
		t.Fatalf("4 chains (%v) not faster than 1 chain (%v)", parallel, serial)
	}
}

func TestAllgatherSingleRank(t *testing.T) {
	_, _, comm := buildComm(t, 1, fabric.Config{}, Config{Transport: verbs.UD, VerifyData: true})
	if _, err := runAllgather(comm, 10000); err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherTwoRanks(t *testing.T) {
	_, _, comm := buildComm(t, 2, fabric.Config{}, Config{Transport: verbs.UD, VerifyData: true})
	if _, err := runAllgather(comm, 8192); err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherSubChunkMessage(t *testing.T) {
	// A 100-byte allgather: single short chunk per rank.
	_, _, comm := buildComm(t, 4, fabric.Config{}, Config{Transport: verbs.UD, VerifyData: true})
	if _, err := runAllgather(comm, 100); err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryUnderFabricDrops(t *testing.T) {
	// 2% per-hop drops: recovery must repair every lost chunk and the
	// buffers must still verify.
	_, _, comm := buildComm(t, 4, fabric.Config{DropRate: 0.02},
		Config{Transport: verbs.UD, VerifyData: true, CutoffAlpha: 100 * sim.Microsecond})
	res, err := runAllgather(comm, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
	if res.MaxRecovered() == 0 {
		t.Fatal("no chunk was recovered despite 2% drops (expected slow-path activity)")
	}
}

func TestRecoveryUnderHeavyDrops(t *testing.T) {
	_, _, comm := buildComm(t, 4, fabric.Config{DropRate: 0.15},
		Config{Transport: verbs.UD, VerifyData: true, CutoffAlpha: 50 * sim.Microsecond})
	if _, err := runAllgather(comm, 50000); err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryUCDrops(t *testing.T) {
	_, _, comm := buildComm(t, 4, fabric.Config{DropRate: 0.05},
		Config{Transport: verbs.UC, ChunkBytes: 8192, VerifyData: true,
			CutoffAlpha: 50 * sim.Microsecond})
	if _, err := runAllgather(comm, 100000); err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastRecovery(t *testing.T) {
	_, _, comm := buildComm(t, 4, fabric.Config{DropRate: 0.10},
		Config{Transport: verbs.UD, VerifyData: true, CutoffAlpha: 50 * sim.Microsecond})
	res, err := runBroadcast(comm, 1, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
	if res.MaxRecovered() == 0 {
		t.Fatal("expected recovered chunks at 10% drop rate")
	}
}

func TestSequentialOperations(t *testing.T) {
	_, _, comm := buildComm(t, 4, fabric.Config{}, Config{Transport: verbs.UD, VerifyData: true})
	for i := 0; i < 3; i++ {
		if _, err := runAllgather(comm, 30000); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if err := comm.VerifyLast(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	// Mixed kinds on the same communicator.
	if _, err := runBroadcast(comm, 3, 10000); err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentOpRejected(t *testing.T) {
	_, _, comm := buildComm(t, 2, fabric.Config{}, Config{Transport: verbs.UD})
	if err := comm.StartAllgather(1000, nil); err != nil {
		t.Fatal(err)
	}
	if err := comm.StartAllgather(1000, nil); err == nil {
		t.Fatal("second in-flight op accepted")
	}
}

func TestInvalidConfigs(t *testing.T) {
	eng := sim.NewEngine(1)
	g := topology.Star(2)
	f := fabric.New(eng, g, fabric.Config{})
	if _, err := newComm(f, g.Hosts(), Config{Transport: verbs.RC}); err == nil {
		t.Fatal("RC fast path accepted")
	}
	if _, err := newComm(f, g.Hosts(), Config{Transport: verbs.UD, ChunkBytes: 8192}); err == nil {
		t.Fatal("UD chunk above MTU accepted")
	}
	if _, err := newComm(f, nil, Config{Transport: verbs.UD}); err == nil {
		t.Fatal("empty communicator accepted")
	}
	comm, err := newComm(f, g.Hosts(), Config{Transport: verbs.UD})
	if err != nil {
		t.Fatal(err)
	}
	if err := comm.StartAllgather(0, nil); err == nil {
		t.Fatal("zero-byte allgather accepted")
	}
}

func TestBreakdownTimesConsistent(t *testing.T) {
	_, _, comm := buildComm(t, 8, fabric.Config{}, Config{Transport: verbs.UD})
	res, err := runAllgather(comm, 262144)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.PerRank {
		if s.BarrierTime < 0 || s.McastTime < 0 || s.FinalTime < 0 {
			t.Fatalf("negative phase time: %+v", s)
		}
		sum := s.BarrierTime + s.McastTime + s.FinalTime
		if sum > s.Total+sim.Microsecond {
			t.Fatalf("phases (%v) exceed total (%v)", sum, s.Total)
		}
		if s.Total <= 0 {
			t.Fatalf("rank %d total %v", s.Rank, s.Total)
		}
	}
	// At large message sizes the multicast datapath must dominate (Fig 10).
	s := res.PerRank[0]
	if s.McastTime < 4*s.BarrierTime {
		t.Fatalf("multicast phase (%v) does not dominate barrier (%v) at 256 KiB", s.McastTime, s.BarrierTime)
	}
}

func TestAlgBandwidthSaneAndBounded(t *testing.T) {
	_, f, comm := buildComm(t, 8, fabric.Config{}, Config{Transport: verbs.UD})
	res, err := runAllgather(comm, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	bw := res.AlgBandwidth()
	link := f.Config().LinkBandwidth
	if bw <= 0 || bw > link {
		t.Fatalf("algorithm bandwidth %.3g outside (0, %.3g]", bw, link)
	}
}

// The headline property (Insight 1): with the multicast allgather, switch
// egress traffic is ≈ (tree links)·N, half of what a P2P ring moves.
func TestTrafficOptimality(t *testing.T) {
	const p, n = 8, 1 << 18
	eng := sim.NewEngine(7)
	g, err := topology.TwoLevelFatTree(topology.FatTreeSpec{Hosts: p, HostsPerLeaf: 4, Spines: 2})
	if err != nil {
		t.Fatal(err)
	}
	f := fabric.New(eng, g, fabric.Config{})
	comm, err := newComm(f, g.Hosts(), Config{Transport: verbs.UD})
	if err != nil {
		t.Fatal(err)
	}
	f.ResetCounters()
	if _, err := runAllgather(comm, n); err != nil {
		t.Fatal(err)
	}
	got := float64(f.SwitchEgressBytes())
	// The multicast tree spans 8 host links + 2 leaf-spine links; each
	// rank's buffer crosses each tree link at most once, and a rank's own
	// buffer never crosses its own host link downward: per rank, 7 host
	// links + <=2 trunk links. Control traffic adds a little.
	// Per datagram from a rank on leaf A: 3 host links on its own leaf,
	// 1 trunk up, 1 trunk down, 4 host links on the other leaf = 9 switch
	// egress crossings — each tree link exactly once (Insight 1). Control
	// traffic adds a sliver.
	payloadFactor := 1.0 + 64.0/4096.0 // headers
	ideal := float64(p) * float64(n) * 9 * payloadFactor
	if got > ideal*1.05 {
		t.Fatalf("switch egress %.3g exceeds bandwidth-optimal bound %.3g by >5%%", got, ideal)
	}
	if got < ideal*0.95 {
		t.Fatalf("switch egress %.3g suspiciously below the tree-link bound %.3g", got, ideal)
	}
}

func TestRxOnDPA(t *testing.T) {
	_, _, comm := buildComm(t, 4, fabric.Config{},
		Config{Transport: verbs.UD, RxOnDPA: true, VerifyData: true})
	if _, err := runAllgather(comm, 65536); err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
	if chip := comm.Rank(0).rxWkrs[0].Thread.Chip().Name(); chip != "dpa" {
		t.Fatalf("receive worker runs on %q, want dpa", chip)
	}
}

func TestNonBlockingStartCallback(t *testing.T) {
	eng, _, comm := buildComm(t, 4, fabric.Config{}, Config{Transport: verbs.UD})
	called := false
	if err := comm.StartAllgather(4096, func(res *Result) {
		called = true
		if res.End < res.Start {
			t.Error("result times inverted")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("callback fired synchronously")
	}
	eng.Run()
	if !called {
		t.Fatal("callback never fired")
	}
}

func TestReorderJitterTolerated(t *testing.T) {
	// Out-of-order delivery (adaptive-routing emulation) must not corrupt
	// reassembly thanks to PSN-addressed placement.
	_, _, comm := buildComm(t, 4, fabric.Config{ReorderJitter: 20 * sim.Microsecond},
		Config{Transport: verbs.UD, VerifyData: true})
	if _, err := runAllgather(comm, 100000); err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
}

func TestLargerScaleAllgather(t *testing.T) {
	if testing.Short() {
		t.Skip("large simulation")
	}
	_, _, comm := buildComm(t, 16, fabric.Config{},
		Config{Transport: verbs.UD, Subgroups: 2, Chains: 2, VerifyData: true})
	if _, err := runAllgather(comm, 131072); err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
}

// Property: random (P, size, subgroups, drops) configurations always
// complete and verify.
func TestPropertyProtocolAlwaysCompletes(t *testing.T) {
	f := func(pRaw, sizeRaw, subRaw uint8, dropRaw uint16) bool {
		p := int(pRaw)%6 + 2          // 2..7
		size := int(sizeRaw)*97 + 100 // 100..24835
		subgroups := int(subRaw)%3 + 1
		drop := float64(dropRaw%100) / 2000 // 0..5%
		eng := sim.NewEngine(uint64(pRaw)<<24 | uint64(sizeRaw)<<16 | uint64(dropRaw))
		g := topology.Star(p)
		fb := fabric.New(eng, g, fabric.Config{DropRate: drop})
		comm, err := newComm(fb, g.Hosts(), Config{
			Transport:   verbs.UD,
			Subgroups:   subgroups,
			VerifyData:  true,
			CutoffAlpha: 50 * sim.Microsecond,
		})
		if err != nil {
			return false
		}
		if _, err := runAllgather(comm, size); err != nil {
			return false
		}
		return comm.VerifyLast() == nil
	}
	// The full 40-case sweep dominates the package's test time; -short
	// keeps a representative sample.
	count := 40
	if testing.Short() {
		count = 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: count}); err != nil {
		t.Error(err)
	}
}
