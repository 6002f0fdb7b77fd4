// Package registry maps algorithm names to executable collective.Algorithm
// instances, adapting the multicast protocol (internal/core) and the P2P
// baselines (internal/coll) to the one unified surface. Every consumer —
// the OSU-style driver, the per-figure harness experiments, the examples
// and the top-level benchmarks — dispatches through New instead of
// hand-rolling a switch over algorithm names, so adding an algorithm is a
// single table entry here.
package registry

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/topology"
)

// Options parameterizes an algorithm instance.
type Options struct {
	// Hosts restricts the team to a subset of the fabric's endpoints. Nil
	// means every host, in topology order.
	Hosts []topology.NodeID
	// Core tunes the multicast protocol (the mcast-* algorithms), which
	// runs over UD multicast; the zero value takes the paper's defaults.
	// Its RQDepth sizes every subgroup's data QP receive queue and staging
	// ring. The host CPU model is a property of the shared cluster the
	// algorithm is built on.
	Core core.Config
	// Coll tunes the P2P baselines (chunk size, data verification).
	Coll coll.Config
}

// builder constructs one named algorithm over the shared cluster runtime.
type builder func(name string, cl *cluster.Cluster, hosts []topology.NodeID, opts Options) (collective.Algorithm, error)

// algorithms is the registry: every collective algorithm the simulation
// implements, P2P and multicast alike.
var algorithms = map[string]builder{
	"mcast-broadcast":     newMcast(collective.Broadcast),
	"mcast-allgather":     newMcast(collective.Allgather),
	"ring-allgather":      newTeamAlg(collective.Allgather, anySize, (*coll.Team).StartRingAllgather),
	"linear-allgather":    newTeamAlg(collective.Allgather, anySize, (*coll.Team).StartLinearAllgather),
	"rd-allgather":        newTeamAlg(collective.Allgather, powerOfTwo, (*coll.Team).StartRecursiveDoublingAllgather),
	"bruck-allgather":     newTeamAlg(collective.Allgather, anySize, (*coll.Team).StartBruckAllgather),
	"knomial-broadcast":   newTreeAlg((*coll.Team).StartKnomialBroadcast),
	"binary-broadcast":    newTreeAlg((*coll.Team).StartBinaryTreeBroadcast),
	"chain-broadcast":     newTreeAlg((*coll.Team).StartChainBroadcast),
	"ring-reduce-scatter": newTeamAlg(collective.ReduceScatter, anySize, (*coll.Team).StartRingReduceScatter),
	"inc-reduce-scatter":  newINCReduceScatter,
}

// Names returns every registered algorithm name, sorted.
func Names() []string {
	names := make([]string, 0, len(algorithms))
	for name := range algorithms {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// New builds the named algorithm over the cluster's shared per-host
// runtime. Transport state persists across Run calls on the returned
// instance (warm queue pairs and buffers, as OSU methodology requires).
func New(cl *cluster.Cluster, name string, opts Options) (collective.Algorithm, error) {
	b, ok := algorithms[name]
	if !ok {
		return nil, fmt.Errorf("registry: unknown algorithm %q (have %v)", name, Names())
	}
	hosts := opts.Hosts
	if hosts == nil {
		hosts = cl.Fabric().Graph().Hosts()
	}
	return b(name, cl, hosts, opts)
}

// Verifier is implemented by algorithms that can check payload integrity
// of the most recent operation (requires VerifyData in the options).
type Verifier interface {
	VerifyLast(op collective.Op) error
}
