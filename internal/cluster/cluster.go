// Package cluster owns the per-host runtime shared by every communicator
// and collective team in a simulation: one verbs context (the NIC) and one
// CPU model per host, plus an optional DPA complex. Sharing these is what
// makes concurrently running collectives (the FSDP Allgather/Reduce-Scatter
// overlap scenario of §II-A) contend for the same injection bandwidth and
// the same cores, exactly as they would on a real node.
package cluster

import (
	"fmt"

	"repro/internal/dpa"
	"repro/internal/fabric"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/verbs"
)

// cpuCores sizes the host CPU model: the EPYC 7413 of the paper's DPA
// testbed.
const cpuCores = 24

// Config shapes the per-host resources.
type Config struct {
	// Verbs configures the transport layer (RQ depth, RC timeouts). Its
	// Metrics registry is the run's one telemetry recorder: every verbs
	// context, communicator and team built on the cluster reports there.
	Verbs verbs.Config
}

// Node is the runtime of one host.
type Node struct {
	Host topology.NodeID
	Ctx  *verbs.Context
	CPU  *dpa.Chip
	dpa  *dpa.Chip
	f    *fabric.Fabric

	arbiters   []*dpa.Worker
	arbProfile dpa.Profile
	arbOnDPA   bool
}

// DPA returns the host's SmartNIC DPA complex, instantiating it on first
// use (hosts that never offload never pay for one).
func (n *Node) DPA() *dpa.Chip {
	if n.dpa == nil {
		n.dpa = dpa.NewDPA(n.f.Engine())
	}
	return n.dpa
}

// RxArbiters returns the node's shared receive workers, creating them on
// first use: count hardware threads (from the DPA when onDPA, else the
// CPU), each a dpa.Worker that serves the completion queues every
// communicator on this host hands it round-robin per datagram — the
// software traffic arbitration of §V-C. Later callers must request the
// same geometry.
func (n *Node) RxArbiters(count int, onDPA bool, p dpa.Profile) ([]*dpa.Worker, error) {
	if n.arbiters != nil {
		if len(n.arbiters) != count || n.arbProfile != p || n.arbOnDPA != onDPA {
			return nil, fmt.Errorf("cluster: host %d arbiters already created with different geometry", n.Host)
		}
		return n.arbiters, nil
	}
	chip := n.CPU
	if onDPA {
		chip = n.DPA()
	}
	for _, th := range chip.AllocThreads(count) {
		n.arbiters = append(n.arbiters, dpa.NewWorker(n.f.Engine(), th, p))
	}
	n.arbProfile = p
	n.arbOnDPA = onDPA
	return n.arbiters, nil
}

// Cluster maps hosts to their runtime nodes.
type Cluster struct {
	f     *fabric.Fabric
	cfg   Config
	nodes map[topology.NodeID]*Node
}

// New builds an empty cluster over the fabric.
func New(f *fabric.Fabric, cfg Config) *Cluster {
	return &Cluster{f: f, cfg: cfg, nodes: make(map[topology.NodeID]*Node)}
}

// Fabric returns the underlying fabric.
func (cl *Cluster) Fabric() *fabric.Fabric { return cl.f }

// Metrics returns the cluster's telemetry registry, nil when telemetry is
// off.
func (cl *Cluster) Metrics() *telemetry.Registry { return cl.cfg.Verbs.Metrics }

// CollectTelemetry exports the transport counters of every node's verbs
// context into the cluster's registry. Node map iteration order is
// nondeterministic, but the per-context export only sums into counters,
// which commutes. Without a registry it is a no-op.
func (cl *Cluster) CollectTelemetry() {
	if cl.Metrics() == nil {
		return
	}
	for _, n := range cl.nodes {
		n.Ctx.CollectTelemetry(cl.Metrics())
	}
}

// Node returns (creating on first use) the runtime for a host.
func (cl *Cluster) Node(h topology.NodeID) *Node {
	if n, ok := cl.nodes[h]; ok {
		return n
	}
	n := &Node{
		Host: h,
		Ctx:  verbs.NewContext(cl.f, h, cl.cfg.Verbs),
		CPU:  dpa.NewCPU(cl.f.Engine(), cpuCores),
		f:    cl.f,
	}
	cl.nodes[h] = n
	return n
}
