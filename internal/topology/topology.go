// Package topology builds the static network graphs used by the fabric
// simulator: two- and three-level fat-trees (the paper's UCC testbed is a
// 188-node fat-tree of 18 radix-36 SX6036 switches), a back-to-back pair
// (the DPA testbed), plus up/down unicast routing tables and the multicast
// spanning trees that switches use to replicate datagrams.
//
// Each link carries two directed channels, numbered as the fabric numbers
// them (its ChannelID): 2*link for the A->B direction, 2*link+1 for B->A.
// Graph.Channel maps a node's port to the channel leaving through it, and
// the routing table names its egress candidates by channel.
package topology

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// NodeID identifies a node (host or switch) in the graph.
type NodeID int

// Kind discriminates hosts from switches.
type Kind uint8

const (
	// Host is a compute endpoint with a NIC attached to exactly one leaf.
	Host Kind = iota
	// Switch is a fabric switch.
	Switch
)

func (k Kind) String() string {
	if k == Host {
		return "host"
	}
	return "switch"
}

// Node is a vertex of the topology graph. Level 0 is the host layer; leaf
// switches are level 1, spines level 2, cores level 3.
type Node struct {
	ID    NodeID
	Kind  Kind
	Level int
}

// Link is an undirected cable between two nodes. The fabric simulator
// instantiates one unidirectional channel per direction. APort/BPort are
// the port indices on each endpoint (positions in the adjacency lists).
type Link struct {
	ID           int
	A, B         NodeID
	APort, BPort int
}

// Neighbor is one adjacency entry: the port with this index on the owning
// node connects over Link to Peer.
type Neighbor struct {
	Peer NodeID
	Link int
}

// Graph is an immutable topology. Build one with a constructor
// (TwoLevelFatTree, ThreeLevelFatTree, Testbed188, BackToBack) and treat it
// as read-only afterwards: fabrics on any number of goroutines share one
// Graph and the routing table it memoizes. Handle it by pointer only.
type Graph struct {
	Nodes []Node
	Links []Link
	// Adj[n][p] is the neighbor reached through port p of node n.
	Adj [][]Neighbor

	routingOnce sync.Once
	routing     *RoutingTable
}

func newGraph() *Graph { return &Graph{} }

func (g *Graph) addNode(kind Kind, level int) NodeID {
	id := NodeID(len(g.Nodes))
	g.Nodes = append(g.Nodes, Node{ID: id, Kind: kind, Level: level})
	g.Adj = append(g.Adj, nil)
	return id
}

func (g *Graph) addLink(a, b NodeID) int {
	id := len(g.Links)
	ap, bp := len(g.Adj[a]), len(g.Adj[b])
	g.Links = append(g.Links, Link{ID: id, A: a, B: b, APort: ap, BPort: bp})
	g.Adj[a] = append(g.Adj[a], Neighbor{Peer: b, Link: id})
	g.Adj[b] = append(g.Adj[b], Neighbor{Peer: a, Link: id})
	return id
}

// Hosts returns the IDs of all host nodes in ascending order.
func (g *Graph) Hosts() []NodeID {
	var hs []NodeID
	for _, n := range g.Nodes {
		if n.Kind == Host {
			hs = append(hs, n.ID)
		}
	}
	return hs
}

// TopSwitches returns every switch at the topology's highest level (the
// spine/core tier) in node order: the candidate roots for multicast and
// reduction trees. Empty if the graph has no switches.
func (g *Graph) TopSwitches() []NodeID {
	maxLevel := 0
	for _, n := range g.Nodes {
		if n.Kind == Switch && n.Level > maxLevel {
			maxLevel = n.Level
		}
	}
	var out []NodeID
	for _, n := range g.Nodes {
		if n.Kind == Switch && n.Level == maxLevel {
			out = append(out, n.ID)
		}
	}
	return out
}

// Switches returns the IDs of all switch nodes in ascending order.
func (g *Graph) Switches() []NodeID {
	var ss []NodeID
	for _, n := range g.Nodes {
		if n.Kind == Switch {
			ss = append(ss, n.ID)
		}
	}
	return ss
}

// Validate performs structural sanity checks and returns the first problem
// found, if any. Constructors call it; tests call it on every preset.
func (g *Graph) Validate() error {
	for _, n := range g.Nodes {
		if n.Kind == Host && len(g.Adj[n.ID]) != 1 {
			return fmt.Errorf("topology: host %d has %d ports, want 1", n.ID, len(g.Adj[n.ID]))
		}
	}
	for _, l := range g.Links {
		if g.Adj[l.A][l.APort].Peer != l.B || g.Adj[l.B][l.BPort].Peer != l.A {
			return fmt.Errorf("topology: link %d adjacency inconsistent", l.ID)
		}
	}
	// Connectivity: BFS from node 0 must reach every node.
	if len(g.Nodes) > 0 {
		seen := make([]bool, len(g.Nodes))
		queue := []NodeID{0}
		seen[0] = true
		count := 1
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, nb := range g.Adj[n] {
				if !seen[nb.Peer] {
					seen[nb.Peer] = true
					count++
					queue = append(queue, nb.Peer)
				}
			}
		}
		if count != len(g.Nodes) {
			return fmt.Errorf("topology: graph is disconnected (%d of %d reachable)", count, len(g.Nodes))
		}
	}
	return nil
}

// FatTreeSpec parameterizes a two-level (leaf/spine) fat-tree.
type FatTreeSpec struct {
	Hosts        int // number of compute endpoints
	HostsPerLeaf int // down-ports used per leaf switch
	Spines       int // number of spine switches
	TrunkLinks   int // parallel links between each (leaf, spine) pair
}

// TwoLevelFatTree builds a leaf/spine fat-tree. Every leaf connects to every
// spine with TrunkLinks parallel cables, so the up-capacity of a leaf is
// Spines*TrunkLinks links.
func TwoLevelFatTree(spec FatTreeSpec) (*Graph, error) {
	if spec.Hosts <= 0 || spec.HostsPerLeaf <= 0 || spec.Spines <= 0 {
		return nil, fmt.Errorf("topology: invalid spec %+v", spec)
	}
	if spec.TrunkLinks <= 0 {
		spec.TrunkLinks = 1
	}
	g := newGraph()
	leaves := (spec.Hosts + spec.HostsPerLeaf - 1) / spec.HostsPerLeaf

	leafIDs := make([]NodeID, leaves)
	for i := range leafIDs {
		leafIDs[i] = g.addNode(Switch, 1)
	}
	spineIDs := make([]NodeID, spec.Spines)
	for i := range spineIDs {
		spineIDs[i] = g.addNode(Switch, 2)
	}
	for h := 0; h < spec.Hosts; h++ {
		id := g.addNode(Host, 0)
		g.addLink(id, leafIDs[h/spec.HostsPerLeaf])
	}
	for _, leaf := range leafIDs {
		for _, spine := range spineIDs {
			for t := 0; t < spec.TrunkLinks; t++ {
				g.addLink(leaf, spine)
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Testbed188 reproduces the shape of the paper's UCC testbed: 188 hosts on
// a fat-tree of 18 radix-36 switches (12 leaves with 16 hosts each, 6
// spines, 3-wide trunks: 16 down + 18 up = 34 <= 36 ports per leaf). The
// graph is built once per process; every caller gets the same one.
func Testbed188() *Graph { return testbed188() }

var testbed188 = sync.OnceValue(func() *Graph {
	g, err := TwoLevelFatTree(FatTreeSpec{
		Hosts:        188,
		HostsPerLeaf: 16,
		Spines:       6,
		TrunkLinks:   3,
	})
	if err != nil {
		panic(err) // spec is a constant; failure is a programming error
	}
	return g
})

// ThreeLevelFatTree builds a k-ary fat-tree (Al-Fares et al.): k pods, each
// with k/2 edge and k/2 aggregation switches, (k/2)^2 core switches, and
// k/2 hosts per edge switch. hosts limits how many endpoints are actually
// populated (hosts <= k^3/4); pods are filled in order.
func ThreeLevelFatTree(k, hosts int) (*Graph, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topology: fat-tree radix k=%d must be even and >= 2", k)
	}
	maxHosts := k * k * k / 4
	if hosts <= 0 || hosts > maxHosts {
		return nil, fmt.Errorf("topology: hosts=%d out of range (1..%d) for k=%d", hosts, maxHosts, k)
	}
	g := newGraph()
	half := k / 2

	// Only instantiate the pods needed to hold the requested hosts, plus all
	// cores: this keeps small models small while preserving path diversity.
	hostsPerPod := half * half
	pods := (hosts + hostsPerPod - 1) / hostsPerPod

	core := make([]NodeID, half*half)
	for i := range core {
		core[i] = g.addNode(Switch, 3)
	}
	placed := 0
	for p := 0; p < pods; p++ {
		edges := make([]NodeID, half)
		aggs := make([]NodeID, half)
		for i := 0; i < half; i++ {
			edges[i] = g.addNode(Switch, 1)
			aggs[i] = g.addNode(Switch, 2)
		}
		for _, e := range edges {
			for _, a := range aggs {
				g.addLink(e, a)
			}
		}
		for ai, a := range aggs {
			for c := 0; c < half; c++ {
				g.addLink(a, core[ai*half+c])
			}
		}
		for _, e := range edges {
			for h := 0; h < half && placed < hosts; h++ {
				id := g.addNode(Host, 0)
				g.addLink(id, e)
				placed++
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// BackToBack builds the two-host DPA testbed: two servers connected through
// a single switch (standing in for the cable plus NIC-internal loopback so
// that port counters and multicast groups still work uniformly).
func BackToBack() *Graph {
	g := newGraph()
	sw := g.addNode(Switch, 1)
	for i := 0; i < 2; i++ {
		h := g.addNode(Host, 0)
		g.addLink(h, sw)
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}

// Star builds n hosts hanging off one switch. Useful in unit tests that
// need multicast without multi-level routing.
func Star(n int) *Graph {
	g := newGraph()
	sw := g.addNode(Switch, 1)
	for i := 0; i < n; i++ {
		h := g.addNode(Host, 0)
		g.addLink(h, sw)
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}

// LeafOf returns the switch a host is cabled to.
func (g *Graph) LeafOf(h NodeID) NodeID {
	if g.Nodes[h].Kind != Host {
		panic(fmt.Sprintf("topology: LeafOf(%d): not a host", h))
	}
	return g.Adj[h][0].Peer
}

// HopsFrom returns, for every node, its hop distance (in links) from src.
// Used by analytic traffic models to count link crossings of unicast paths.
func (g *Graph) HopsFrom(src NodeID) []int { return g.hopsByBFS(src) }

// hopsByBFS returns, for every node, its hop distance from src.
func (g *Graph) hopsByBFS(src NodeID) []int {
	dist := make([]int, len(g.Nodes))
	g.bfs(src, dist, make([]NodeID, 0, len(g.Nodes)))
	return dist
}

// bfs fills dist (one entry per node, -1 for unreachable) with hop
// distances from src, using queue's backing array as scratch.
func (g *Graph) bfs(src NodeID, dist []int, queue []NodeID) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	for head := 0; head < len(queue); head++ {
		n := queue[head]
		for _, nb := range g.Adj[n] {
			if dist[nb.Peer] < 0 {
				dist[nb.Peer] = dist[n] + 1
				queue = append(queue, nb.Peer)
			}
		}
	}
}

// RoutingTable is a graph's unicast routing: for every switch and every
// destination host, the egress channels on shortest paths toward the host.
// A channel is numbered the fabric's way (its ChannelID, see Channel). The
// fabric picks among several candidates by a hash of the flow
// (deterministic ECMP).
type RoutingTable struct {
	// index[node] is a switch's row offset in next, or a host's column.
	index []int32
	// next[index[sw]+index[host]] is sw's route toward host: the channel
	// itself when there is one candidate, NoRoute when there is none, and
	// -2-k when there are several, listed at ecmp[k].
	next []int32
	// ecmp holds the ECMP lists back to back, each its length followed by
	// its channels in ascending port order. A switch's consecutive hosts
	// with equal lists share one.
	ecmp []int32
}

// NoRoute is the route of a switch that has no path toward a host.
const NoRoute = -1

// Next returns sw's route toward host dst: its channel when it has one
// candidate, NoRoute when it has none, and otherwise NoRoute with its
// candidate channels in ascending port order. sw must be a switch and dst a
// host; the returned slice must not be modified.
func (rt *RoutingTable) Next(sw, dst NodeID) (int32, []int32) {
	e := rt.next[rt.index[sw]+rt.index[dst]]
	if e >= NoRoute {
		return e, nil
	}
	k := NoRoute - 1 - e
	end := k + 1 + rt.ecmp[k]
	return NoRoute, rt.ecmp[k+1 : end : end]
}

// Channel returns the directed channel leaving node n through port: 2*link
// when n is the link's A end, 2*link+1 when it is the B end.
func (g *Graph) Channel(n NodeID, port int) int {
	l := g.Adj[n][port].Link
	if g.Links[l].A == n {
		return 2 * l
	}
	return 2*l + 1
}

// Routing returns the graph's routing table, computed by BuildRouting on
// first use and shared read-only by every fabric built on g afterwards.
func (g *Graph) Routing() *RoutingTable {
	g.routingOnce.Do(func() { g.routing = g.BuildRouting() })
	return g.routing
}

// BuildRouting computes shortest-path multipath routing for every switch
// toward every host using one BFS per host. Ports are visited in ascending
// order, so each candidate list is born sorted; a list equal to the one the
// switch's previous host got reuses it. A fresh table is built per call —
// Routing is the memoized accessor.
func (g *Graph) BuildRouting() *RoutingTable {
	n := len(g.Nodes)
	rt := &RoutingTable{index: make([]int32, n)}
	hosts, switches := 0, 0
	for _, nd := range g.Nodes {
		if nd.Kind == Host {
			rt.index[nd.ID] = int32(hosts)
			hosts++
		}
	}
	for _, nd := range g.Nodes {
		if nd.Kind == Switch {
			rt.index[nd.ID] = int32(switches * hosts)
			switches++
		}
	}
	rt.next = make([]int32, switches*hosts)
	// last[sw] is where the ECMP list of switch sw's previous host starts
	// in rt.ecmp, -1 before it has one.
	last := make([]int32, n)
	for i := range last {
		last[i] = -1
	}
	dist, queue, cands := make([]int, n), make([]NodeID, 0, n), make([]int32, 0, n)
	for _, h := range g.Nodes {
		if h.Kind != Host {
			continue
		}
		g.bfs(h.ID, dist, queue)
		for _, sw := range g.Nodes {
			if sw.Kind != Switch {
				continue
			}
			cands = cands[:0]
			for p, nb := range g.Adj[sw.ID] {
				if dist[nb.Peer] == dist[sw.ID]-1 {
					cands = append(cands, int32(g.Channel(sw.ID, p)))
				}
			}
			e := &rt.next[rt.index[sw.ID]+rt.index[h.ID]]
			switch len(cands) {
			case 0:
				*e = NoRoute
			case 1:
				*e = cands[0]
			default:
				k := last[sw.ID]
				if k < 0 || !slices.Equal(rt.ecmp[k+1:k+1+rt.ecmp[k]], cands) {
					k = int32(len(rt.ecmp))
					rt.ecmp = append(append(rt.ecmp, int32(len(cands))), cands...)
					last[sw.ID] = k
				}
				*e = NoRoute - 1 - k
			}
		}
	}
	return rt
}

// MulticastTree is a shared spanning tree connecting the members of a
// multicast group. Switch behaviour follows the InfiniBand model: a packet
// arriving on one tree port is replicated to every other tree port.
type MulticastTree struct {
	Root NodeID
	// TreePorts[node] lists, in ascending order, the port indices of node
	// that are tree edges; empty for a node off the tree. One entry per
	// graph node.
	TreePorts [][]int
	// ParentPort[node] is the tree port leading toward the root, -1 for the
	// root itself and for nodes off the tree. In-network reduction routes
	// contributions up along these ports.
	ParentPort []int
	// Members records the attached hosts in ascending order.
	Members []NodeID
}

// OnTree reports whether node n participates in the tree.
func (mt *MulticastTree) OnTree(n NodeID) bool { return len(mt.TreePorts[n]) > 0 }

// BuildMulticastTree computes the spanning tree for a group: shortest paths
// from the chosen root switch to every member host, with shared prefixes
// merged. Choosing different roots for different groups spreads replication
// load across the spine layer, which is how the protocol's "multicast
// subgroups" map onto fabric resources.
func (g *Graph) BuildMulticastTree(root NodeID, members []NodeID) (*MulticastTree, error) {
	if g.Nodes[root].Kind != Switch {
		return nil, fmt.Errorf("topology: multicast root %d is not a switch", root)
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("topology: multicast group with no members")
	}
	dist := g.hopsByBFS(root)
	tree := &MulticastTree{
		Root:       root,
		TreePorts:  make([][]int, len(g.Nodes)),
		ParentPort: make([]int, len(g.Nodes)),
	}
	for i := range tree.ParentPort {
		tree.ParentPort[i] = -1
	}
	addPort := func(n NodeID, p int) {
		for _, q := range tree.TreePorts[n] {
			if q == p {
				return
			}
		}
		tree.TreePorts[n] = append(tree.TreePorts[n], p)
	}
	seen := make([]bool, len(g.Nodes))
	for _, m := range members {
		if g.Nodes[m].Kind != Host {
			return nil, fmt.Errorf("topology: multicast member %d is not a host", m)
		}
		if seen[m] {
			continue
		}
		seen[m] = true
		tree.Members = append(tree.Members, m)
		// Walk up from the member to the root, adding both endpoints of each
		// traversed link as tree ports.
		for n := m; n != root; {
			// The BFS parent is behind the lowest-numbered port that leads
			// one hop closer to the root (deterministic).
			port := -1
			for p, nb := range g.Adj[n] {
				if dist[nb.Peer] == dist[n]-1 {
					port = p
					break
				}
			}
			if port < 0 {
				return nil, fmt.Errorf("topology: member %d unreachable from root %d", m, root)
			}
			up := g.Adj[n][port].Peer
			addPort(n, port)
			addPort(up, reversePort(g, n, port))
			tree.ParentPort[n] = port
			n = up
		}
	}
	sort.Slice(tree.Members, func(i, j int) bool { return tree.Members[i] < tree.Members[j] })
	for _, ports := range tree.TreePorts {
		sort.Ints(ports)
	}
	return tree, nil
}

// reversePort finds, given node n and its port p, the port index on the
// peer that refers back to the same link.
func reversePort(g *Graph, n NodeID, p int) int {
	l := g.Links[g.Adj[n][p].Link]
	if l.A == n && l.APort == p {
		return l.BPort
	}
	return l.APort
}
