// Package registry maps algorithm names to executable collective.Algorithm
// instances: one algorithm type binds the multicast protocol
// (internal/core) or a P2P baseline (internal/coll) to the one unified
// surface. Every consumer — the OSU-style driver, the per-figure harness
// experiments, the examples and the top-level benchmarks — dispatches
// through New instead of hand-rolling a switch over algorithm names, so
// adding an algorithm is a single table entry here.
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

// entry is one registry row: the operation, the team-size rule and the
// protocol layer's binding.
type entry struct {
	kind collective.Kind
	size func(ranks int) bool
	bind binder
}

// algorithms is the registry: every collective algorithm the simulation
// implements, P2P and multicast alike.
var algorithms = map[string]entry{
	"mcast-broadcast":     {collective.Broadcast, anySize, mcast},
	"mcast-allgather":     {collective.Allgather, anySize, mcast},
	"ring-allgather":      {collective.Allgather, anySize, team((*coll.Team).StartRingAllgather)},
	"linear-allgather":    {collective.Allgather, anySize, team((*coll.Team).StartLinearAllgather)},
	"rd-allgather":        {collective.Allgather, powerOfTwo, team((*coll.Team).StartRecursiveDoublingAllgather)},
	"bruck-allgather":     {collective.Allgather, anySize, team((*coll.Team).StartBruckAllgather)},
	"knomial-broadcast":   {collective.Broadcast, anySize, tree((*coll.Team).StartKnomialBroadcast)},
	"binary-broadcast":    {collective.Broadcast, anySize, tree((*coll.Team).StartBinaryTreeBroadcast)},
	"chain-broadcast":     {collective.Broadcast, anySize, tree((*coll.Team).StartChainBroadcast)},
	"ring-reduce-scatter": {collective.ReduceScatter, anySize, team((*coll.Team).StartRingReduceScatter)},
	"inc-reduce-scatter":  {collective.ReduceScatter, anySize, incReduceScatter},
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
	e, ok := algorithms[name]
	if !ok {
		return nil, fmt.Errorf("registry: unknown algorithm %q (have %v)", name, Names())
	}
	hosts := opts.Hosts
	if hosts == nil {
		hosts = cl.Fabric().Graph().Hosts()
	}
	a := &algorithm{name: name, kind: e.kind, ranks: len(hosts), size: e.size}
	if err := e.bind(a, cl, hosts, opts); err != nil {
		return nil, err
	}
	return a, nil
}
