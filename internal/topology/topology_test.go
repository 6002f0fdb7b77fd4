package topology

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestTwoLevelFatTreeShape(t *testing.T) {
	g, err := TwoLevelFatTree(FatTreeSpec{Hosts: 8, HostsPerLeaf: 4, Spines: 2, TrunkLinks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.Hosts()); got != 8 {
		t.Errorf("hosts = %d, want 8", got)
	}
	if got := len(g.Switches()); got != 4 { // 2 leaves + 2 spines
		t.Errorf("switches = %d, want 4", got)
	}
	// links: 8 host links + 2 leaves * 2 spines = 12
	if got := len(g.Links); got != 12 {
		t.Errorf("links = %d, want 12", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoLevelFatTreeInvalidSpec(t *testing.T) {
	for _, spec := range []FatTreeSpec{
		{Hosts: 0, HostsPerLeaf: 4, Spines: 2},
		{Hosts: 8, HostsPerLeaf: 0, Spines: 2},
		{Hosts: 8, HostsPerLeaf: 4, Spines: 0},
	} {
		if _, err := TwoLevelFatTree(spec); err == nil {
			t.Errorf("spec %+v accepted, want error", spec)
		}
	}
}

func TestTestbed188(t *testing.T) {
	g := Testbed188()
	if got := len(g.Hosts()); got != 188 {
		t.Errorf("hosts = %d, want 188", got)
	}
	if got := len(g.Switches()); got != 18 {
		t.Errorf("switches = %d, want 18 (paper: 18 SX6036)", got)
	}
	// Radix check: no switch may exceed 36 ports (SX6036).
	for _, sw := range g.Switches() {
		if p := g.NumPorts(sw); p > 36 {
			t.Errorf("switch %d has %d ports, exceeds radix 36", sw, p)
		}
	}
}

func TestThreeLevelFatTree(t *testing.T) {
	g, err := ThreeLevelFatTree(4, 16) // full k=4 tree: 16 hosts, 20 switches
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.Hosts()); got != 16 {
		t.Errorf("hosts = %d, want 16", got)
	}
	if got := len(g.Switches()); got != 20 { // 4 cores + 4 pods * (2+2)
		t.Errorf("switches = %d, want 20", got)
	}
}

func TestThreeLevelFatTreePartial(t *testing.T) {
	g, err := ThreeLevelFatTree(4, 5) // 2 pods needed (4 hosts/pod)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.Hosts()); got != 5 {
		t.Errorf("hosts = %d, want 5", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestThreeLevelFatTreeRejectsOddRadix(t *testing.T) {
	if _, err := ThreeLevelFatTree(5, 10); err == nil {
		t.Error("odd radix accepted")
	}
	if _, err := ThreeLevelFatTree(4, 17); err == nil {
		t.Error("too many hosts accepted")
	}
}

func TestBackToBack(t *testing.T) {
	g := BackToBack()
	if len(g.Hosts()) != 2 || len(g.Switches()) != 1 {
		t.Fatalf("back-to-back shape wrong: %d hosts %d switches", len(g.Hosts()), len(g.Switches()))
	}
}

func TestStar(t *testing.T) {
	g := Star(5)
	if len(g.Hosts()) != 5 || len(g.Switches()) != 1 {
		t.Fatal("star shape wrong")
	}
	for _, h := range g.Hosts() {
		if g.LeafOf(h) != 0 {
			t.Fatalf("host %d leaf = %d", h, g.LeafOf(h))
		}
	}
}

func TestLeafOfPanicsOnSwitch(t *testing.T) {
	g := Star(2)
	defer func() {
		if recover() == nil {
			t.Error("LeafOf(switch) did not panic")
		}
	}()
	g.LeafOf(0) // node 0 is the switch
}

func TestPortToward(t *testing.T) {
	g := Star(3)
	sw := g.Switches()[0]
	for _, h := range g.Hosts() {
		p := g.PortToward(sw, h)
		if p < 0 || g.Adj[sw][p].Peer != h {
			t.Fatalf("PortToward(%d,%d) = %d", sw, h, p)
		}
		if g.PortToward(h, sw) != 0 {
			t.Fatalf("host uplink port != 0")
		}
	}
	if g.PortToward(1, 2) != -1 {
		t.Fatal("non-adjacent nodes reported a port")
	}
}

func TestRoutingReachesEveryHost(t *testing.T) {
	g := Testbed188()
	rt := g.BuildRouting()
	hosts := g.Hosts()
	for _, sw := range g.Switches() {
		for _, dst := range hosts {
			cands := rt.Candidates(sw, dst)
			if len(cands) == 0 {
				t.Fatalf("switch %d has no route to host %d", sw, dst)
			}
			for _, p := range cands {
				if p < 0 || p >= g.NumPorts(sw) {
					t.Fatalf("switch %d candidate port %d out of range", sw, p)
				}
			}
		}
	}
}

func TestRoutingFollowsShortestPath(t *testing.T) {
	g, err := TwoLevelFatTree(FatTreeSpec{Hosts: 8, HostsPerLeaf: 4, Spines: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt := g.BuildRouting()
	hosts := g.Hosts()
	// From each host's leaf, walk candidate ports to the destination and
	// count hops; same-leaf pairs must take 2 hops (host-leaf-host),
	// cross-leaf 4 (host-leaf-spine-leaf-host).
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			hops := 0
			cur := g.LeafOf(src)
			for cur != dst {
				cands := rt.Candidates(cur, dst)
				if len(cands) == 0 {
					t.Fatalf("no route %d->%d at %d", src, dst, cur)
				}
				cur = g.Adj[cur][cands[0]].Peer
				hops++
				if hops > 10 {
					t.Fatalf("routing loop %d->%d", src, dst)
				}
			}
			sameLeaf := g.LeafOf(src) == g.LeafOf(dst)
			want := 1
			if !sameLeaf {
				want = 3 // leaf -> spine -> leaf -> host
			}
			if hops != want {
				t.Fatalf("%d->%d took %d switch hops, want %d", src, dst, hops, want)
			}
		}
	}
}

func TestRoutingMultipath(t *testing.T) {
	g, err := TwoLevelFatTree(FatTreeSpec{Hosts: 8, HostsPerLeaf: 4, Spines: 4})
	if err != nil {
		t.Fatal(err)
	}
	rt := g.BuildRouting()
	// A leaf routing to a host on the *other* leaf must see all 4 spines as
	// candidates.
	leaf0 := g.LeafOf(g.Hosts()[0])
	otherHost := g.Hosts()[7]
	if g.LeafOf(otherHost) == leaf0 {
		t.Fatal("test setup wrong: hosts share a leaf")
	}
	if got := len(rt.Candidates(leaf0, otherHost)); got != 4 {
		t.Fatalf("cross-leaf candidates = %d, want 4 (one per spine)", got)
	}
}

func TestMulticastTreeStar(t *testing.T) {
	g := Star(4)
	sw := g.Switches()[0]
	members := g.Hosts()[:3]
	mt, err := g.BuildMulticastTree(sw, members)
	if err != nil {
		t.Fatal(err)
	}
	if len(mt.TreePorts[sw]) != 3 {
		t.Fatalf("switch tree ports = %v, want 3 entries", mt.TreePorts[sw])
	}
	if mt.OnTree(g.Hosts()[3]) {
		t.Fatal("non-member host on tree")
	}
	for _, m := range members {
		if !mt.OnTree(m) {
			t.Fatalf("member %d not on tree", m)
		}
	}
}

func TestMulticastTreeSpansFatTree(t *testing.T) {
	g := Testbed188()
	hosts := g.Hosts()
	spine := g.Switches()[12] // first spine (leaves are 0..11)
	if g.Nodes[spine].Level != 2 {
		t.Fatalf("node %d not a spine", spine)
	}
	mt, err := g.BuildMulticastTree(spine, hosts)
	if err != nil {
		t.Fatal(err)
	}
	// Every member must be able to reach the root through tree ports.
	for _, m := range hosts {
		cur := m
		steps := 0
		for cur != spine {
			ports := mt.TreePorts[cur]
			if len(ports) == 0 {
				t.Fatalf("member %d stranded at %d", m, cur)
			}
			// Move along the port whose peer is closer to the root: on a
			// tree walk up, that is the unique port not leading to where we
			// came from; for hosts it is port 0.
			next := NodeID(-1)
			for _, p := range ports {
				peer := g.Adj[cur][p].Peer
				if g.Nodes[peer].Level > g.Nodes[cur].Level {
					next = peer
					break
				}
			}
			if next < 0 {
				t.Fatalf("no upward tree port at node %d (member %d)", cur, m)
			}
			cur = next
			if steps++; steps > 5 {
				t.Fatalf("tree walk from %d did not reach root", m)
			}
		}
	}
}

func TestMulticastTreeDeduplicatesMembers(t *testing.T) {
	g := Star(3)
	h := g.Hosts()[0]
	mt, err := g.BuildMulticastTree(g.Switches()[0], []NodeID{h, h, h})
	if err != nil {
		t.Fatal(err)
	}
	if len(mt.Members) != 1 {
		t.Fatalf("members = %v, want single entry", mt.Members)
	}
}

func TestMulticastTreeErrors(t *testing.T) {
	g := Star(3)
	if _, err := g.BuildMulticastTree(g.Hosts()[0], g.Hosts()); err == nil {
		t.Error("host as root accepted")
	}
	if _, err := g.BuildMulticastTree(g.Switches()[0], nil); err == nil {
		t.Error("empty group accepted")
	}
	if _, err := g.BuildMulticastTree(g.Switches()[0], []NodeID{0}); err == nil {
		t.Error("switch as member accepted")
	}
}

// Property: for random two-level fat-trees, every multicast tree connects
// all members with each node's tree ports forming a connected subgraph.
func TestPropertyMulticastTreeConnects(t *testing.T) {
	f := func(hostsRaw, spinesRaw uint8, rootPick uint8) bool {
		hosts := int(hostsRaw%30) + 2
		spines := int(spinesRaw%4) + 1
		g, err := TwoLevelFatTree(FatTreeSpec{Hosts: hosts, HostsPerLeaf: 4, Spines: spines})
		if err != nil {
			return false
		}
		sws := g.Switches()
		root := sws[int(rootPick)%len(sws)]
		mt, err := g.BuildMulticastTree(root, g.Hosts())
		if err != nil {
			return false
		}
		// BFS over tree edges from root must reach every member.
		seen := map[NodeID]bool{root: true}
		queue := []NodeID{root}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, p := range mt.TreePorts[n] {
				peer := g.Adj[n][p].Peer
				if !mt.OnTree(peer) {
					return false // tree edge leads off-tree
				}
				if !seen[peer] {
					seen[peer] = true
					queue = append(queue, peer)
				}
			}
		}
		for _, m := range mt.Members {
			if !seen[m] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestValidateDetectsDisconnected(t *testing.T) {
	g := newGraph()
	g.addNode(Switch, 1, "a")
	g.addNode(Switch, 1, "b") // never linked
	if err := g.Validate(); err == nil {
		t.Error("disconnected graph passed validation")
	}
}

// --- reference implementations ---------------------------------------------
//
// The map-and-sort bodies BuildRouting and BuildMulticastTree had before they
// went dense and allocation-lean, kept verbatim as the oracle.

func refHops(g *Graph, src NodeID) []int {
	dist := make([]int, len(g.Nodes))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, nb := range g.Adj[n] {
			if dist[nb.Peer] < 0 {
				dist[nb.Peer] = dist[n] + 1
				queue = append(queue, nb.Peer)
			}
		}
	}
	return dist
}

func refBuildRouting(g *Graph) [][][]int {
	ports := make([][][]int, len(g.Nodes))
	for _, n := range g.Nodes {
		if n.Kind == Switch {
			ports[n.ID] = make([][]int, len(g.Nodes))
		}
	}
	for _, h := range g.Hosts() {
		dist := refHops(g, h)
		for _, sw := range g.Switches() {
			var cands []int
			for p, nb := range g.Adj[sw] {
				if dist[nb.Peer] == dist[sw]-1 {
					cands = append(cands, p)
				}
			}
			sort.Ints(cands)
			ports[sw][h] = cands
		}
	}
	return ports
}

type refTree struct {
	Root       NodeID
	TreePorts  map[NodeID][]int
	ParentPort map[NodeID]int
	Members    []NodeID
}

func refBuildMulticastTree(g *Graph, root NodeID, members []NodeID) (*refTree, error) {
	if g.Nodes[root].Kind != Switch {
		return nil, fmt.Errorf("topology: multicast root %d is not a switch", root)
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("topology: multicast group with no members")
	}
	dist := refHops(g, root)
	type parent struct {
		port int
		node NodeID
	}
	parents := make(map[NodeID]parent)
	for _, n := range g.Nodes {
		if n.ID == root || dist[n.ID] < 0 {
			continue
		}
		for p, nb := range g.Adj[n.ID] {
			if dist[nb.Peer] == dist[n.ID]-1 {
				parents[n.ID] = parent{port: p, node: nb.Peer}
				break // deterministic: lowest-numbered port wins
			}
		}
	}
	tree := &refTree{
		Root:       root,
		TreePorts:  make(map[NodeID][]int),
		ParentPort: make(map[NodeID]int),
	}
	addPort := func(n NodeID, p int) {
		for _, q := range tree.TreePorts[n] {
			if q == p {
				return
			}
		}
		tree.TreePorts[n] = append(tree.TreePorts[n], p)
	}
	seen := make(map[NodeID]bool)
	for _, m := range members {
		if g.Nodes[m].Kind != Host {
			return nil, fmt.Errorf("topology: multicast member %d is not a host", m)
		}
		if seen[m] {
			continue
		}
		seen[m] = true
		tree.Members = append(tree.Members, m)
		n := m
		for n != root {
			par, ok := parents[n]
			if !ok {
				return nil, fmt.Errorf("topology: member %d unreachable from root %d", m, root)
			}
			addPort(n, par.port)
			addPort(par.node, reversePort(g, n, par.port))
			tree.ParentPort[n] = par.port
			n = par.node
		}
	}
	sort.Slice(tree.Members, func(i, j int) bool { return tree.Members[i] < tree.Members[j] })
	for n := range tree.TreePorts {
		sort.Ints(tree.TreePorts[n])
	}
	return tree, nil
}

// equivalenceGraphs is the grid both equivalence tests run over: every
// preset shape, a seeded random grid of two-level fat-trees, and one
// disconnected graph no constructor would return (an island pair the main
// star cannot reach: nil candidates, unreachable members).
type namedGraph struct {
	name string
	g    *Graph
}

func equivalenceGraphs(t *testing.T) []namedGraph {
	t.Helper()
	gs := []namedGraph{
		{"testbed188", Testbed188()},
		{"star1", Star(1)},
		{"star2", Star(2)},
		{"star16", Star(16)},
		{"backtoback", BackToBack()},
	}
	for _, c := range []struct{ k, hosts int }{{4, 1}, {4, 5}, {4, 16}, {8, 17}, {8, 128}} {
		g, err := ThreeLevelFatTree(c.k, c.hosts)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, namedGraph{fmt.Sprintf("fattree3-k%d-h%d", c.k, c.hosts), g})
	}
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 24; i++ {
		spec := FatTreeSpec{
			Hosts:        1 + rng.Intn(60),
			HostsPerLeaf: 1 + rng.Intn(9),
			Spines:       1 + rng.Intn(5),
			TrunkLinks:   rng.Intn(4), // 0 defaults to 1
		}
		g, err := TwoLevelFatTree(spec)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, namedGraph{fmt.Sprintf("fattree2-%d-%+v", i, spec), g})
	}
	island := newGraph()
	sw := island.addNode(Switch, 1, "sw")
	for i := 0; i < 3; i++ {
		island.addLink(island.addNode(Host, 0, "h"), sw)
	}
	far := island.addNode(Switch, 1, "far")
	island.addLink(island.addNode(Host, 0, "stranded"), far)
	return append(gs, namedGraph{"disconnected", island})
}

func TestRoutingMatchesReference(t *testing.T) {
	for _, ng := range equivalenceGraphs(t) {
		name, g := ng.name, ng.g
		want := refBuildRouting(g)
		for pass, rt := range []*RoutingTable{g.BuildRouting(), g.Routing(), g.Routing()} {
			for _, n := range g.Nodes {
				for _, h := range g.Hosts() {
					got := rt.Candidates(n.ID, h)
					var ref []int
					if want[n.ID] != nil {
						ref = want[n.ID][h]
					}
					if (got == nil) != (ref == nil) || !slices.Equal(got, ref) {
						t.Fatalf("%s pass %d: Candidates(%d, %d) = %v, reference %v", name, pass, n.ID, h, got, ref)
					}
					if cap(got) != len(got) {
						t.Fatalf("%s: Candidates(%d, %d) has spare capacity %d: an append would write into its neighbour", name, n.ID, h, cap(got)-len(got))
					}
				}
			}
		}
		if g.Routing() != g.Routing() {
			t.Fatalf("%s: Routing() is not memoized", name)
		}
		if g.BuildRouting() == g.Routing() {
			t.Fatalf("%s: BuildRouting returned the memoized table, want a fresh one", name)
		}
	}
}

func TestMulticastTreeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, ng := range equivalenceGraphs(t) {
		name, g := ng.name, ng.g
		hosts, switches := g.Hosts(), g.Switches()
		for trial := 0; trial < 12; trial++ {
			// Roots are mostly switches, members mostly hosts; the odd host
			// root, switch member and empty member list take the error paths.
			root := switches[rng.Intn(len(switches))]
			if trial == 10 {
				root = hosts[rng.Intn(len(hosts))]
			}
			var members []NodeID
			for i, n := 0, rng.Intn(2*len(hosts)+1); i < n; i++ {
				members = append(members, hosts[rng.Intn(len(hosts))]) // duplicates included
			}
			if trial == 11 && len(members) > 0 {
				members[rng.Intn(len(members))] = switches[0]
			}
			got, gotErr := g.BuildMulticastTree(root, members)
			want, wantErr := refBuildMulticastTree(g, root, members)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("%s root %d members %v: error %v, reference %v", name, root, members, gotErr, wantErr)
			}
			if gotErr != nil {
				if got != nil {
					t.Fatalf("%s: tree returned alongside error %v", name, gotErr)
				}
				continue
			}
			if got.Root != want.Root || !slices.Equal(got.Members, want.Members) {
				t.Fatalf("%s root %d: Root/Members = %d/%v, reference %d/%v", name, root, got.Root, got.Members, want.Root, want.Members)
			}
			if len(got.TreePorts) != len(g.Nodes) || len(got.ParentPort) != len(g.Nodes) {
				t.Fatalf("%s: dense tables have %d/%d rows, want one per node (%d)", name, len(got.TreePorts), len(got.ParentPort), len(g.Nodes))
			}
			for _, n := range g.Nodes {
				refPorts, onRef := want.TreePorts[n.ID]
				if got.OnTree(n.ID) != onRef || !slices.Equal(got.TreePorts[n.ID], refPorts) {
					t.Fatalf("%s root %d node %d: OnTree/TreePorts = %v/%v, reference %v/%v",
						name, root, n.ID, got.OnTree(n.ID), got.TreePorts[n.ID], onRef, refPorts)
				}
				refParent, hasParent := want.ParentPort[n.ID]
				if !hasParent {
					refParent = -1
				}
				if got.ParentPort[n.ID] != refParent {
					t.Fatalf("%s root %d node %d: ParentPort = %d, reference %d", name, root, n.ID, got.ParentPort[n.ID], refParent)
				}
			}
		}
	}
}
