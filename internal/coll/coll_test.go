package coll

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topology"
)

// blocking drives one non-blocking Start* call to completion through the
// shared collective.RunBlocking; runN and runRooted bind the two common
// entry-point shapes.
func blocking(t *Team, start func(cb func(*Result)) error) (*Result, error) {
	return collective.RunBlocking("coll op", t.eng, start)
}

func runN(t *Team, start func(*Team, int, func(*Result)) error, n int) (*Result, error) {
	return blocking(t, func(cb func(*Result)) error { return start(t, n, cb) })
}

func runRooted(t *Team, start func(*Team, int, int, func(*Result)) error, root, n int) (*Result, error) {
	return blocking(t, func(cb func(*Result)) error { return start(t, root, n, cb) })
}

func buildTeam(t *testing.T, p int, cfg Config) (*sim.Engine, *fabric.Fabric, *Team) {
	t.Helper()
	return buildNoisyTeam(t, 17, p, fabric.Config{}, cfg)
}

// buildNoisyTeam is buildTeam on a fabric with its own engine seed and
// configuration (reordering, loss).
func buildNoisyTeam(t *testing.T, seed uint64, p int, fcfg fabric.Config, cfg Config) (*sim.Engine, *fabric.Fabric, *Team) {
	t.Helper()
	eng := sim.NewEngine(seed)
	var g *topology.Graph
	if p <= 4 {
		g = topology.Star(p)
	} else {
		var err error
		g, err = topology.TwoLevelFatTree(topology.FatTreeSpec{Hosts: p, HostsPerLeaf: 4, Spines: 2})
		if err != nil {
			t.Fatal(err)
		}
	}
	f := fabric.New(eng, g, fcfg)
	team, err := newTeam(f, g.Hosts()[:p], cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, f, team
}

// newTeam builds a team on a private cluster over f.
func newTeam(f *fabric.Fabric, hosts []topology.NodeID, cfg Config) (*Team, error) {
	return NewTeam(cluster.New(f, cluster.Config{}), hosts, cfg)
}

// rcWriteStarts maps every RC-write baseline, by registry name, to its
// entry point; the allgathers ignore root.
var rcWriteStarts = map[string]func(t *Team, root, n int, cb func(*Result)) error{
	"ring-allgather":    func(t *Team, _, n int, cb func(*Result)) error { return t.StartRingAllgather(n, cb) },
	"linear-allgather":  func(t *Team, _, n int, cb func(*Result)) error { return t.StartLinearAllgather(n, cb) },
	"rd-allgather":      func(t *Team, _, n int, cb func(*Result)) error { return t.StartRecursiveDoublingAllgather(n, cb) },
	"bruck-allgather":   func(t *Team, _, n int, cb func(*Result)) error { return t.StartBruckAllgather(n, cb) },
	"knomial-broadcast": (*Team).StartKnomialBroadcast,
	"binary-broadcast":  (*Team).StartBinaryTreeBroadcast,
	"chain-broadcast":   (*Team).StartChainBroadcast,
}

// verifiedCase is one data-checked run of RC-write baselines.
type verifiedCase struct {
	algs  []string // nil: every baseline in rcWriteStarts
	ranks []int
	n     int
	chunk int // Config.ChunkBytes (0: the default)
	root  int
	// seeds > 0 runs engine seeds 1..seeds on a fabric with jitter and
	// drop; seeds == 0 runs the quiet fabric once.
	seeds  int
	jitter sim.Time
	drop   float64
	// slow, when set, adds that latency to every channel of the last rank.
	slow sim.Time
}

// verifiedCases is every data-checked run of the RC-write baselines. The
// noisy rows reorder and drop writes, so a later step's or chunk's write
// can land before an earlier one; the slow rows let one rank's partners
// run a round ahead of it.
var verifiedCases = []verifiedCase{
	{algs: []string{"ring-allgather"}, ranks: []int{4}, n: 40000},
	{algs: []string{"linear-allgather"}, ranks: []int{4}, n: 20000},
	{algs: []string{"rd-allgather"}, ranks: []int{8}, n: 16384},
	{algs: []string{"bruck-allgather"}, ranks: []int{2, 3, 4, 7, 8, 13}, n: 12000},
	{algs: []string{"knomial-broadcast"}, ranks: []int{2, 4, 8, 13}, n: 30000},
	{algs: []string{"binary-broadcast"}, ranks: []int{8}, n: 100000, chunk: 4096},
	{algs: []string{"chain-broadcast"}, ranks: []int{8}, n: 65536, chunk: 8192},
	{ranks: []int{8}, n: 32768, chunk: 4096, seeds: 20, jitter: 5 * sim.Microsecond, drop: 0.01},
	{algs: []string{"ring-allgather", "linear-allgather", "bruck-allgather",
		"knomial-broadcast", "binary-broadcast", "chain-broadcast"},
		ranks: []int{6}, n: 24000, chunk: 4096, root: 2, seeds: 20, jitter: 5 * sim.Microsecond, drop: 0.01},
	{algs: []string{"rd-allgather", "bruck-allgather"}, ranks: []int{8, 16}, n: 4096, slow: 5 * sim.Microsecond},
}

// checkVerified runs every verifiedCases row that names alg and checks the
// result and every rank's bytes.
func checkVerified(t *testing.T, alg string) {
	start := rcWriteStarts[alg]
	for _, c := range verifiedCases {
		if c.algs != nil && !slices.Contains(c.algs, alg) {
			continue
		}
		for _, p := range c.ranks {
			for seed := min(c.seeds, 1); seed <= c.seeds; seed++ {
				fcfg := fabric.Config{ReorderJitter: c.jitter, DropRate: c.drop}
				_, f, team := buildNoisyTeam(t, uint64(17+seed), p, fcfg, Config{VerifyData: true, ChunkBytes: c.chunk})
				if c.slow > 0 {
					slowHost := team.peers[p-1].node.Host
					for id := 0; id < f.NumChannels(); id++ {
						if from, to := f.ChannelEnds(fabric.ChannelID(id)); from == slowHost || to == slowHost {
							f.SetExtraLatency(fabric.ChannelID(id), c.slow)
						}
					}
				}
				name := fmt.Sprintf("P=%d n=%d seed=%d jitter=%v drop=%g slow=%v", p, c.n, seed, c.jitter, c.drop, c.slow)
				res, err := blocking(team, func(cb func(*Result)) error { return start(team, c.root, c.n, cb) })
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				recv := (p - 1) * c.n
				if strings.HasSuffix(alg, "broadcast") {
					err, recv = team.VerifyBroadcast(c.root, c.n), c.n
				} else {
					err = team.VerifyAllgather(c.n)
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.Kind != alg || res.RecvBytes != recv || res.Duration() <= 0 {
					t.Fatalf("%s: result meta: %+v", name, res)
				}
			}
		}
	}
}

func TestRingAllgatherVerified(t *testing.T) { checkVerified(t, "ring-allgather") }

func TestRingAllgatherSingleRank(t *testing.T) {
	_, _, team := buildTeam(t, 1, Config{VerifyData: true})
	if _, err := runN(team, (*Team).StartRingAllgather, 1000); err != nil {
		t.Fatal(err)
	}
}

func TestLinearAllgatherVerified(t *testing.T) { checkVerified(t, "linear-allgather") }

func TestRecursiveDoublingAllgatherVerified(t *testing.T) { checkVerified(t, "rd-allgather") }

func TestRecursiveDoublingRejectsNonPow2(t *testing.T) {
	_, _, team := buildTeam(t, 3, Config{})
	if _, err := runN(team, (*Team).StartRecursiveDoublingAllgather, 1024); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
}

func TestKnomialBroadcastVerified(t *testing.T) { checkVerified(t, "knomial-broadcast") }

func TestKnomialNonZeroRoot(t *testing.T) {
	_, _, team := buildTeam(t, 8, Config{VerifyData: true})
	if _, err := runRooted(team, (*Team).StartKnomialBroadcast, 3, 10000); err != nil {
		t.Fatal(err)
	}
	if err := team.VerifyBroadcast(3, 10000); err != nil {
		t.Fatal(err)
	}
}

func TestKnomialTreeStructure(t *testing.T) {
	// Radix 2, size 8, root 0: children(0)={1,2,4}, children(4)={5,6},
	// children(6)={7}, leaves have none; parents invert the relation.
	cases := map[int][]int{0: {1, 2, 4}, 1: nil, 2: {3}, 3: nil, 4: {5, 6}, 5: nil, 6: {7}, 7: nil}
	for id, want := range cases {
		got := knomialChildren(id, 0, 8, 2)
		if len(got) != len(want) {
			t.Fatalf("children(%d) = %v, want %v", id, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("children(%d) = %v, want %v", id, got, want)
			}
		}
	}
	for id := 1; id < 8; id++ {
		par := knomialParent(id, 0, 8, 2)
		found := false
		for _, c := range knomialChildren(par, 0, 8, 2) {
			if c == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("parent(%d)=%d does not list it as a child", id, par)
		}
	}
	if knomialParent(0, 0, 8, 2) != -1 {
		t.Fatal("root has a parent")
	}
}

// knomialParent returns the parent of id in the k-nomial tree (or -1 for
// the root).
func knomialParent(id, root, size, radix int) int {
	v := (id - root + size) % size
	if v == 0 {
		return -1
	}
	pow := 1
	for v%(pow*radix) == 0 {
		pow *= radix
	}
	digit := (v / pow) % radix
	parent := v - digit*pow
	return (parent + root) % size
}

func TestKnomialTreeCoversAllRanks(t *testing.T) {
	for _, radix := range []int{2, 3, 4, 8} {
		for _, size := range []int{1, 2, 5, 16, 188} {
			for _, root := range []int{0, size / 2} {
				seen := map[int]bool{root: true}
				queue := []int{root}
				for len(queue) > 0 {
					n := queue[0]
					queue = queue[1:]
					for _, c := range knomialChildren(n, root, size, radix) {
						if seen[c] {
							t.Fatalf("radix %d size %d: rank %d reached twice", radix, size, c)
						}
						seen[c] = true
						queue = append(queue, c)
					}
				}
				if len(seen) != size {
					t.Fatalf("radix %d size %d root %d: tree covers %d of %d", radix, size, root, len(seen), size)
				}
			}
		}
	}
}

func TestBinaryTreeBroadcastVerified(t *testing.T) { checkVerified(t, "binary-broadcast") }

func TestChainBroadcastVerified(t *testing.T) { checkVerified(t, "chain-broadcast") }

func TestPipeliningBeatsStoreAndForwardAtLargeN(t *testing.T) {
	// Chunked binary tree must beat whole-message k-nomial at multi-MiB
	// sizes on the same topology (the large-message regime of Fig. 11).
	const n = 4 << 20
	_, _, team1 := buildTeam(t, 8, Config{ChunkBytes: 64 * 1024})
	bin, err := runRooted(team1, (*Team).StartBinaryTreeBroadcast, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	_, _, team2 := buildTeam(t, 8, Config{})
	kn, err := runRooted(team2, (*Team).StartKnomialBroadcast, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	if bin.Duration() >= kn.Duration() {
		t.Fatalf("pipelined binary (%v) not faster than store-and-forward knomial (%v) at 4 MiB",
			bin.Duration(), kn.Duration())
	}
}

func TestRingReduceScatter(t *testing.T) {
	_, _, team := buildTeam(t, 4, Config{})
	res, err := runN(team, (*Team).StartRingReduceScatter, 32768)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration() <= 0 {
		t.Fatal("non-positive duration")
	}
}

func TestINCReduceScatter(t *testing.T) {
	eng := sim.NewEngine(3)
	g := topology.Star(4)
	f := fabric.New(eng, g, fabric.Config{})
	team, err := newTeam(f, g.Hosts(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	rg, err := f.CreateReduceGroup(g.Switches()[0], g.Hosts())
	if err != nil {
		t.Fatal(err)
	}
	res, err := blocking(team, func(cb func(*Result)) error { return team.StartINCReduceScatter(rg, 65536, cb) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration() <= 0 {
		t.Fatal("non-positive duration")
	}
	// 64 KiB shard = 16 chunks x 4 shards reduced at the root.
	if got := f.ReducedChunks(rg); got != 64 {
		t.Fatalf("root reduced %d chunks, want 64", got)
	}
}

func TestINCSendPathDominates(t *testing.T) {
	// Insight 2: INC reduce-scatter loads the send path ~(P-1)x more than
	// the receive path. Verify via per-host NIC counters.
	eng := sim.NewEngine(3)
	g := topology.Star(4)
	f := fabric.New(eng, g, fabric.Config{})
	team, _ := newTeam(f, g.Hosts(), Config{})
	rg, _ := f.CreateReduceGroup(g.Switches()[0], g.Hosts())
	if _, err := blocking(team, func(cb func(*Result)) error { return team.StartINCReduceScatter(rg, 65536, cb) }); err != nil {
		t.Fatal(err)
	}
	h0 := g.Hosts()[0]
	up := f.ChannelStats(h0, g.Switches()[0])
	down := f.ChannelStats(g.Switches()[0], h0)
	if up.Bytes < 3*down.Bytes {
		t.Fatalf("send path %d not >> recv path %d", up.Bytes, down.Bytes)
	}
}

func TestRingVsLinearTraffic(t *testing.T) {
	// Both ring and linear move P(P-1)N across host links, but ring pays
	// no incast. At the switch counters on a star they are comparable;
	// the test pins the ring's total as the Figure 12 P2P reference.
	const n = 1 << 16
	eng := sim.NewEngine(5)
	g := topology.Star(4)
	f := fabric.New(eng, g, fabric.Config{})
	team, _ := newTeam(f, g.Hosts(), Config{})
	if _, err := runN(team, (*Team).StartRingAllgather, n); err != nil {
		t.Fatal(err)
	}
	got := float64(f.SwitchEgressBytes())
	want := float64(4*3*n) * (1 + 64.0/4096.0)
	if got < want*0.95 || got > want*1.10 {
		t.Fatalf("ring switch egress %.3g, want ≈%.3g (P(P-1)N)", got, want)
	}
}

func TestConcurrentAllgatherAndReduceScatterShareNIC(t *testing.T) {
	// Two teams on the same hosts: concurrent ring AG and ring RS contend
	// for injection bandwidth, so the pair takes longer than either alone.
	const n = 1 << 20
	mk := func() (*sim.Engine, *cluster.Cluster, *Team, *Team) {
		eng := sim.NewEngine(9)
		g := topology.Star(4)
		f := fabric.New(eng, g, fabric.Config{})
		cl := cluster.New(f, cluster.Config{})
		agTeam, err := NewTeam(cl, g.Hosts(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		rsTeam, err := NewTeam(cl, g.Hosts(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		return eng, cl, agTeam, rsTeam
	}
	// Alone.
	eng, _, agTeam, _ := mk()
	agRes, err := runN(agTeam, (*Team).StartRingAllgather, n)
	if err != nil {
		t.Fatal(err)
	}
	_ = eng
	// Concurrent.
	eng2, _, agTeam2, rsTeam2 := mk()
	var agC, rsC *Result
	if err := agTeam2.StartRingAllgather(n, func(r *Result) { agC = r }); err != nil {
		t.Fatal(err)
	}
	if err := rsTeam2.StartRingReduceScatter(n, func(r *Result) { rsC = r }); err != nil {
		t.Fatal(err)
	}
	eng2.Run()
	if agC == nil || rsC == nil {
		t.Fatal("concurrent ops did not complete")
	}
	if agC.Duration() <= agRes.Duration() {
		t.Fatalf("concurrent AG (%v) not slower than solo AG (%v) despite shared NIC",
			agC.Duration(), agRes.Duration())
	}
}

func TestBusyTeamRejectsSecondOp(t *testing.T) {
	_, _, team := buildTeam(t, 4, Config{})
	if err := team.StartRingAllgather(1000, nil); err != nil {
		t.Fatal(err)
	}
	err := team.StartBruckAllgather(1000, nil)
	if err == nil {
		t.Fatal("second op accepted while busy")
	}
	if !strings.Contains(err.Error(), "ring-allgather running") {
		t.Fatalf("busy error %q does not name the running op", err)
	}
}

func TestInvalidInputs(t *testing.T) {
	_, _, team := buildTeam(t, 4, Config{})
	if _, err := runN(team, (*Team).StartRingAllgather, 0); err == nil {
		t.Fatal("zero-byte allgather accepted")
	}
	if err := team.StartKnomialBroadcast(9, 100, nil); err == nil {
		t.Fatal("out-of-range root accepted")
	}
	eng := sim.NewEngine(1)
	g := topology.Star(2)
	f := fabric.New(eng, g, fabric.Config{})
	if _, err := newTeam(f, nil, Config{}); err == nil {
		t.Fatal("empty team accepted")
	}
}

func TestSequentialTeamOps(t *testing.T) {
	_, _, team := buildTeam(t, 4, Config{VerifyData: true})
	for i := 0; i < 3; i++ {
		if _, err := runN(team, (*Team).StartRingAllgather, 10000); err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if err := team.VerifyAllgather(10000); err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
	}
	if _, err := runRooted(team, (*Team).StartKnomialBroadcast, 1, 5000); err != nil {
		t.Fatal(err)
	}
	if err := team.VerifyBroadcast(1, 5000); err != nil {
		t.Fatal(err)
	}
}

func TestRingAllgatherBandwidthApproachesLink(t *testing.T) {
	// At large N the ring's per-rank receive throughput approaches the
	// link bandwidth (Fig. 11's convergence of ring and multicast).
	_, f, team := buildTeam(t, 8, Config{})
	res, err := runN(team, (*Team).StartRingAllgather, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	bw := res.AlgBandwidth()
	link := f.Config().LinkBandwidth
	if bw < 0.5*link || bw > link {
		t.Fatalf("ring allgather bandwidth %.3g vs link %.3g: outside [0.5, 1.0]x", bw, link)
	}
}

func TestBruckAllgatherVerified(t *testing.T) { checkVerified(t, "bruck-allgather") }

func TestBruckFewerStepsThanRing(t *testing.T) {
	// Bruck finishes in ceil(log2 P) rounds: at small messages (latency
	// bound) it must beat the P-1-step ring.
	_, _, team1 := buildTeam(t, 16, Config{})
	bruck, err := runN(team1, (*Team).StartBruckAllgather, 4096)
	if err != nil {
		t.Fatal(err)
	}
	_, _, team2 := buildTeam(t, 16, Config{})
	ring, err := runN(team2, (*Team).StartRingAllgather, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if bruck.Duration() >= ring.Duration() {
		t.Fatalf("bruck (%v) not faster than ring (%v) at 4 KiB", bruck.Duration(), ring.Duration())
	}
}

func TestChainBroadcastNonZeroRoot(t *testing.T) {
	_, _, team := buildTeam(t, 6, Config{VerifyData: true, ChunkBytes: 8192})
	if _, err := runRooted(team, (*Team).StartChainBroadcast, 2, 40000); err != nil {
		t.Fatal(err)
	}
	if err := team.VerifyBroadcast(2, 40000); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyWithoutDataModeRejected(t *testing.T) {
	_, _, team := buildTeam(t, 2, Config{})
	if _, err := runN(team, (*Team).StartRingAllgather, 1000); err != nil {
		t.Fatal(err)
	}
	if err := team.VerifyAllgather(1000); err == nil {
		t.Fatal("VerifyAllgather without VerifyData succeeded")
	}
	if err := team.VerifyBroadcast(0, 1000); err == nil {
		t.Fatal("VerifyBroadcast without VerifyData succeeded")
	}
}
