package core

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/telemetry"
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

// newComm builds a communicator on a cluster of its own over f.
func newComm(f *fabric.Fabric, hosts []topology.NodeID, cfg Config) (*Communicator, error) {
	return tracedComm(f, hosts, cfg, nil)
}

// tracedComm is newComm on a cluster that records into reg.
func tracedComm(f *fabric.Fabric, hosts []topology.NodeID, cfg Config, reg *telemetry.Registry) (*Communicator, error) {
	return NewCommunicatorOn(cluster.New(f, cluster.Config{Verbs: verbs.Config{Metrics: reg}}), hosts, cfg)
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
	_, _, comm := buildComm(t, 4, fabric.Config{}, Config{VerifyData: true})
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
	_, _, comm := buildComm(t, 4, fabric.Config{}, Config{VerifyData: true})
	if _, err := runBroadcast(comm, 2, 12345); err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastRootOutOfRange(t *testing.T) {
	_, _, comm := buildComm(t, 3, fabric.Config{}, Config{})
	if err := comm.StartBroadcast(3, 100, nil); err == nil {
		t.Fatal("root 3 of 3 accepted")
	}
	if err := comm.StartBroadcast(-1, 100, nil); err == nil {
		t.Fatal("negative root accepted")
	}
}

func TestAllgatherUDVerified(t *testing.T) {
	_, _, comm := buildComm(t, 4, fabric.Config{}, Config{VerifyData: true})
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

func TestAllgatherSubgroups(t *testing.T) {
	_, _, comm := buildComm(t, 8, fabric.Config{},
		Config{Subgroups: 4, VerifyData: true})
	if _, err := runAllgather(comm, 65536); err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
	// Each subgroup's staging ring must have received some chunks, and its
	// worker must have drained every completion they raised.
	for i := 0; i < comm.Size(); i++ {
		r := comm.ranks[i]
		for s, st := range r.staging {
			_, left := r.dataCQs[s].Poll()
			if !slices.ContainsFunc(st.Data, func(b byte) bool { return b != 0 }) || left {
				t.Fatalf("rank %d subgroup %d idle, or completions left: %v", i, s, left)
			}
		}
	}
}

func TestAllgatherParallelChains(t *testing.T) {
	_, _, comm := buildComm(t, 8, fabric.Config{},
		Config{Chains: 2, VerifyData: true})
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
			Config{Chains: chains})
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
	_, _, comm := buildComm(t, 1, fabric.Config{}, Config{VerifyData: true})
	if _, err := runAllgather(comm, 10000); err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherTwoRanks(t *testing.T) {
	_, _, comm := buildComm(t, 2, fabric.Config{}, Config{VerifyData: true})
	if _, err := runAllgather(comm, 8192); err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherSubChunkMessage(t *testing.T) {
	// A 100-byte allgather: single short chunk per rank.
	_, _, comm := buildComm(t, 4, fabric.Config{}, Config{VerifyData: true})
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
		Config{VerifyData: true, CutoffAlpha: 100 * sim.Microsecond})
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
		Config{VerifyData: true, CutoffAlpha: 50 * sim.Microsecond})
	if _, err := runAllgather(comm, 50000); err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastRecovery(t *testing.T) {
	_, _, comm := buildComm(t, 4, fabric.Config{DropRate: 0.10},
		Config{VerifyData: true, CutoffAlpha: 50 * sim.Microsecond})
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
	_, _, comm := buildComm(t, 4, fabric.Config{}, Config{VerifyData: true})
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
	_, _, comm := buildComm(t, 2, fabric.Config{}, Config{})
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
	if _, err := newComm(f, g.Hosts(), Config{Chains: -1}); err == nil {
		t.Fatal("negative chain count accepted")
	}
	if _, err := newComm(f, nil, Config{}); err == nil {
		t.Fatal("empty communicator accepted")
	}
	comm, err := newComm(f, g.Hosts(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := comm.StartAllgather(0, nil); err == nil {
		t.Fatal("zero-byte allgather accepted")
	}
}

func TestBreakdownTimesConsistent(t *testing.T) {
	_, _, comm := buildComm(t, 8, fabric.Config{}, Config{})
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
	_, f, comm := buildComm(t, 8, fabric.Config{}, Config{})
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
	comm, err := newComm(f, g.Hosts(), Config{})
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
		Config{RxOnDPA: true, VerifyData: true})
	if _, err := runAllgather(comm, 65536); err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
	if r := comm.ranks[0]; r.rxWkrs[0].Thread.Chip() != comm.cl.Node(r.host).DPA() {
		t.Fatalf("receive worker does not run on the host's DPA")
	}
}

func TestNonBlockingStartCallback(t *testing.T) {
	eng, _, comm := buildComm(t, 4, fabric.Config{}, Config{})
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
		Config{VerifyData: true})
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
		Config{Subgroups: 2, Chains: 2, VerifyData: true})
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

// TestFoldedRunsKeepTheirTimes pins 16-rank multicast runs. Under
// reordering and loss, the cutoff slack is short, so an allgather rank
// starts its fetch path while multicast chunks still stream in and their
// staging copies complete. On a quiet fabric a rank's receive-done time is
// its last staging copy's completion, so a copy completion queued at the
// wrong time moves it. The engine's event counts and every rank's
// receive-done and done times are constants recorded with one queued
// completion event per staging copy: folding the completions no handler
// can observe must not move any of them, and every run must fold some.
func TestFoldedRunsKeepTheirTimes(t *testing.T) {
	want := map[string][3]uint64{ // Executed, Scheduled, times fingerprint
		"lossy/allgather/1": {20663, 21107, 0xe3e23fc85e8ae63c},
		"lossy/broadcast/1": {6543, 6826, 0x77d9c0052b1c7e0a},
		"lossy/allgather/2": {21799, 22331, 0x9963fadfb3a9cee8},
		"lossy/broadcast/2": {5484, 5632, 0xf820e9eaea071561},
		"lossy/allgather/3": {21911, 22523, 0x3bd7fe49b58f3bf9},
		"lossy/broadcast/3": {6306, 6541, 0xcbc143659ce64a6a},
		"quiet/allgather/1": {13799, 13910, 0x7d9ae0c68a5e2138},
		"quiet/broadcast/1": {3879, 3971, 0xb23f10b9346134c},
	}
	lossy := fabric.Config{DropRate: 0.01, ReorderJitter: 5 * sim.Microsecond}
	for _, c := range []struct {
		name  string
		fcfg  fabric.Config
		seeds []uint64
	}{{"lossy", lossy, []uint64{1, 2, 3}}, {"quiet", fabric.Config{}, []uint64{1}}} {
		for _, seed := range c.seeds {
			for _, kind := range []string{"allgather", "broadcast"} {
				key := fmt.Sprintf("%s/%s/%d", c.name, kind, seed)
				eng := sim.NewEngine(seed)
				g, err := topology.TwoLevelFatTree(topology.FatTreeSpec{Hosts: 16, HostsPerLeaf: 4, Spines: 2})
				if err != nil {
					t.Fatal(err)
				}
				comm, err := newComm(fabric.New(eng, g, c.fcfg), g.Hosts(), Config{VerifyData: true, CutoffAlpha: 2 * sim.Microsecond})
				if err != nil {
					t.Fatal(err)
				}
				var fired uint64
				eng.EventHook = func(sim.Time, uint64, sim.Handler) { fired++ }
				executed0 := eng.Executed
				var res *Result
				if kind == "allgather" {
					res, err = runAllgather(comm, 64<<10)
				} else {
					res, err = runBroadcast(comm, 5, 256<<10)
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := comm.VerifyLast(); err != nil {
					t.Fatal(err)
				}
				if (res.MaxRecovered() == 0) != (c.fcfg == fabric.Config{}) {
					t.Fatalf("%s: %d chunks recovered", key, res.MaxRecovered())
				}
				if eng.Executed-executed0 == fired {
					t.Errorf("%s: no staging-copy completion was folded", key)
				}
				h := fnv.New64a()
				for _, r := range comm.ranks {
					fmt.Fprintf(h, "%d %d\n", r.op.tRxDone, r.op.tDone)
				}
				got := [3]uint64{eng.Executed, eng.Scheduled, h.Sum64()}
				if got != want[key] {
					t.Errorf("%s: Executed, Scheduled, times = %d, %d, %#x, want %d, %d, %#x",
						key, got[0], got[1], got[2], want[key][0], want[key][1], want[key][2])
				}
			}
		}
	}
}

// dropUplink takes a host's uplink down when it fires.
type dropUplink struct {
	f    *fabric.Fabric
	host topology.NodeID
}

func (d dropUplink) OnEvent(*sim.Engine, sim.Handle, uint64, int, any) {
	for id := 0; id < d.f.NumChannels(); id++ {
		if from, _ := d.f.ChannelEnds(fabric.ChannelID(id)); from == d.host {
			d.f.SetDropRate(fabric.ChannelID(id), 1)
		}
	}
}

// TestStalledOpDrains cuts one rank's uplink in the middle of a multicast
// Allgather, after the other ranks have staged copies under the cutoff
// timer. The operation can never finish, and the engine must still run
// dry: the held copies are settled when the timer fires, so no reserved
// number is left for the dry-queue check to find.
func TestStalledOpDrains(t *testing.T) {
	eng, f, comm := buildComm(t, 4, fabric.Config{}, Config{})
	eng.AtHandler(eng.Now()+15*sim.Microsecond, dropUplink{f, comm.ranks[3].host}, 0, 0, nil)
	var fired uint64
	eng.EventHook = func(sim.Time, uint64, sim.Handler) { fired++ }
	executed0 := eng.Executed
	if _, err := runAllgather(comm, 1<<20); err == nil {
		t.Fatal("the allgather completed with a rank's uplink down")
	}
	if eng.Pending() != 0 || eng.Executed-executed0 == fired {
		t.Fatalf("Pending %d after the run, %d folded; want 0 and some", eng.Pending(), eng.Executed-executed0-fired)
	}
}
