// Package core implements the paper's primary contribution: a reliable
// constant-time Broadcast protocol on top of unreliable hardware multicast
// (§III) and the bandwidth-optimal Allgather algorithm composed from it
// (§IV).
//
// The protocol is a faithful state-machine port of the paper's design:
//
//   - Fast path: the root fragments its send buffer into chunks and posts
//     UD multicast sends, one MTU-sized datagram per chunk; each chunk's
//     packet sequence number (PSN) rides the 32-bit CQE immediate. Leaves
//     reassemble through a staging ring, tracking arrivals in a bitmap.
//   - RNR synchronization: all ranks pre-post their receive queues and run
//     a dissemination barrier before any root transmits, eliminating
//     receiver-not-ready drops.
//   - Slow path: a cutoff timer arms when the multicast phase begins; on
//     expiry, missing chunks are recovered by zero-copy RDMA Reads from the
//     left neighbor in a reliable (RC) ring, recursively deferring to the
//     neighbor's own recovery — degrading, in the worst case, to the ring
//     Allgather bound, and never incasting the root with NACKs.
//   - Final handshake: a rank that has received everything sends a final
//     message to its left neighbor and completes when it has also received
//     one from its right neighbor.
//   - Allgather scheduling: ranks are split into M parallel broadcast
//     chains (Appendix A); within a chain, an activation token passes from
//     each finished root to its successor. Traffic is striped over multiple
//     multicast subgroups (trees) processed by independent receive workers,
//     and the send and receive paths run on separate worker threads.
//
// Worker threads are allocated from dpa.Chip execution models, so the same
// protocol code runs on a simulated host CPU or on the DPA SmartNIC and
// exhibits the corresponding datapath costs.
package core

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/verbs"
)

// Config parameterizes a communicator. The fast path is UD multicast, the
// only transport with hardware multicast: a chunk is one MTU datagram.
type Config struct {
	// Subgroups is the number of parallel multicast trees (packet
	// parallelism, §IV-C). Zero defaults to 1.
	Subgroups int
	// Chains is M, the number of parallel broadcast chains in the Allgather
	// schedule (multicast parallelism, Appendix A). Zero defaults to 1 —
	// one actively multicasting root, as in the paper's 188-node runs.
	Chains int
	// RQDepth bounds posted receives per subgroup QP (BlueField-3: 8192).
	RQDepth int
	// CutoffAlpha is the slack added to the receive cutoff timer beyond the
	// ideal transfer time (§III-C). Zero defaults to 500 µs.
	CutoffAlpha sim.Time
	// RxOnDPA runs the receive workers on a per-rank DPA model instead of
	// host CPU cores (§V-B offloading). TX and the app thread stay on the
	// CPU either way.
	RxOnDPA bool
	// ArbitratedRx serves subgroup s's receive CQ of every communicator on
	// a host from that host's shared worker s (cluster.Node.RxArbiters),
	// round-robin, instead of one dedicated worker thread per subgroup per
	// communicator — the software traffic arbitration of §V-C. Communicators
	// sharing a host must agree on Subgroups and RxOnDPA.
	ArbitratedRx bool
	// VerifyData allocates real backing memory for all buffers so tests
	// can check payload integrity end to end.
	VerifyData bool
}

// sendBatch is the number of multicast sends posted per doorbell batch;
// only the last send of a batch is signaled (§V-A).
const sendBatch = 32

func (c Config) withDefaults() Config {
	if c.Subgroups == 0 {
		c.Subgroups = 1
	}
	if c.Chains == 0 {
		c.Chains = 1
	}
	if c.RQDepth == 0 {
		c.RQDepth = 8192
	}
	if c.CutoffAlpha == 0 {
		c.CutoffAlpha = 500 * sim.Microsecond
	}
	return c
}

func (c Config) validate() error {
	if c.Subgroups < 1 || c.Chains < 1 {
		return fmt.Errorf("core: subgroups and chains must be >= 1")
	}
	return nil
}

// Communicator is a group of ranks, one per host, sharing multicast
// subgroups and a reliable control ring — the equivalent of a UCC team
// bound to the multicast backend.
type Communicator struct {
	cfg    Config
	chunk  int // fragmentation unit: the fabric MTU
	f      *fabric.Fabric
	cl     *cluster.Cluster
	eng    *sim.Engine
	ranks  []*Rank
	groups []fabric.GroupID // one per subgroup

	// reg is the cluster's telemetry registry: it records every protocol
	// phase transition (the Figure 9 execution-flow view) and counts them
	// per phase name. Nil adds no cost.
	reg *telemetry.Registry

	opSeq int
	compl *completion // countdown of the in-flight op, nil when idle
}

// NewCommunicatorOn builds a communicator whose ranks run on the shared
// cluster's per-host contexts and CPU models. Multicast subgroup trees are
// rooted round-robin across the topology's top-level switches to spread
// replication load.
func NewCommunicatorOn(cl *cluster.Cluster, hosts []topology.NodeID, cfg Config) (*Communicator, error) {
	f := cl.Fabric()
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(hosts) < 1 {
		return nil, fmt.Errorf("core: communicator needs at least one rank")
	}
	c := &Communicator{cfg: cfg, chunk: f.MaxPayload(), f: f, cl: cl, eng: f.Engine(), reg: cl.Metrics()}

	// Pick multicast roots among the highest-level switches, round-robin.
	g := f.Graph()
	roots := g.TopSwitches()
	if len(roots) == 0 {
		return nil, fmt.Errorf("core: topology has no switch to root multicast trees")
	}
	for s := 0; s < cfg.Subgroups; s++ {
		gid, err := f.CreateGroup(roots[s%len(roots)], hosts)
		if err != nil {
			return nil, fmt.Errorf("core: subgroup %d: %w", s, err)
		}
		c.groups = append(c.groups, gid)
	}

	for i, h := range hosts {
		r, err := newRank(c, i, h)
		if err != nil {
			return nil, err
		}
		c.ranks = append(c.ranks, r)
	}
	// Wire the reliable control mesh (ring neighbors + dissemination peers).
	if err := c.connectControlPlane(); err != nil {
		return nil, err
	}
	return c, nil
}

// Size returns the number of ranks.
func (c *Communicator) Size() int { return len(c.ranks) }

// Engine returns the driving simulation engine.
func (c *Communicator) Engine() *sim.Engine { return c.eng }

// ctrlPeers returns the set of ranks rank r must hold reliable connections
// to: ring neighbors (fetch + final handshake + activation) and
// dissemination-barrier partners in both directions.
func (c *Communicator) ctrlPeers(r int) []int {
	p := c.Size()
	set := map[int]bool{}
	if p > 1 {
		set[(r+1)%p] = true
		set[(r-1+p)%p] = true
		for d := 1; d < p; d *= 2 {
			set[(r+d)%p] = true
			set[(r-d+p)%p] = true
		}
	}
	delete(set, r)
	peers := make([]int, 0, len(set))
	for q := range set {
		peers = append(peers, q)
	}
	// Deterministic order: QP creation order feeds event sequencing, and
	// bit-for-bit reproducibility is a core promise of the simulator.
	sort.Ints(peers)
	return peers
}

// connectControlPlane creates one RC QP pair per (rank, peer) edge.
func (c *Communicator) connectControlPlane() error {
	for _, r := range c.ranks {
		for _, q := range c.ctrlPeers(r.id) {
			if _, ok := r.ctrl[q]; ok {
				continue
			}
			peer := c.ranks[q]
			a := r.ctx.NewQP(verbs.RC, r.ctrlCQ, r.ctrlCQ, 256)
			b := peer.ctx.NewQP(verbs.RC, peer.ctrlCQ, peer.ctrlCQ, 256)
			a.Connect(verbs.Unicast(peer.host, b.N))
			b.Connect(verbs.Unicast(r.host, a.N))
			r.ctrl[q], r.qpPeer[a.N] = a, q
			peer.ctrl[r.id], peer.qpPeer[b.N] = b, r.id
			r.prepostCtrl(a)
			peer.prepostCtrl(b)
		}
	}
	return nil
}

// nextSeq allocates an operation sequence number shared by all ranks.
func (c *Communicator) nextSeq() int {
	c.opSeq++
	return c.opSeq
}
