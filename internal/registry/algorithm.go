package registry

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topology"
)

// algorithm is every registry entry: one operation over one set of ranks,
// started through its protocol layer's non-blocking entry point.
type algorithm struct {
	name  string
	kind  collective.Kind
	eng   *sim.Engine
	ranks int
	size  func(ranks int) bool
	start func(op collective.Op, done func(*collective.Result)) error
	// verify checks the most recent operation's payload; nil when the
	// protocol layer has no verifier for the operation.
	verify func(op collective.Op) error
}

func anySize(int) bool          { return true }
func powerOfTwo(ranks int) bool { return ranks&(ranks-1) == 0 }

func (a *algorithm) Name() string { return a.name }

func (a *algorithm) Kind() collective.Kind { return a.kind }

func (a *algorithm) Supports(op collective.Op) bool {
	return op.Kind == a.kind && op.Bytes > 0 && a.size(a.ranks)
}

func (a *algorithm) Start(op collective.Op, done func(*collective.Result)) error {
	if !a.Supports(op) {
		return fmt.Errorf("registry: %s does not support %s of %d bytes over %d ranks", a.name, op.Kind, op.Bytes, a.ranks)
	}
	return a.start(op, done)
}

func (a *algorithm) Run(op collective.Op) (*collective.Result, error) {
	return collective.RunBlocking(a.name, a.eng, func(done func(*collective.Result)) error {
		return a.Start(op, done)
	})
}

func (a *algorithm) VerifyLast(op collective.Op) error {
	if a.verify == nil {
		return fmt.Errorf("registry: %s has no verifier", a.name)
	}
	return a.verify(op)
}

// binder builds an entry's protocol-layer state over the hosts and sets
// the algorithm's engine, start and verify functions.
type binder func(a *algorithm, cl *cluster.Cluster, hosts []topology.NodeID, opts Options) error

// mcast binds the multicast protocol (internal/core).
func mcast(a *algorithm, cl *cluster.Cluster, hosts []topology.NodeID, opts Options) error {
	comm, err := core.NewCommunicatorOn(cl, hosts, opts.Core)
	if err != nil {
		return err
	}
	a.eng = comm.Engine()
	a.start = func(op collective.Op, done func(*collective.Result)) error {
		if op.Kind == collective.Broadcast {
			return comm.StartBroadcast(op.Root, op.Bytes, done)
		}
		return comm.StartAllgather(op.Bytes, done)
	}
	a.verify = func(collective.Op) error { return comm.VerifyLast() }
	return nil
}

// team binds a rootless coll.Team entry point (the allgathers and the ring
// reduce-scatter); only the allgathers have a verifier.
func team(start func(t *coll.Team, n int, cb func(*collective.Result)) error) binder {
	return func(a *algorithm, cl *cluster.Cluster, hosts []topology.NodeID, opts Options) error {
		t, err := coll.NewTeam(cl, hosts, opts.Coll)
		if err != nil {
			return err
		}
		a.eng = t.Engine()
		a.start = func(op collective.Op, cb func(*collective.Result)) error { return start(t, op.Bytes, cb) }
		if a.kind == collective.Allgather {
			a.verify = func(op collective.Op) error { return t.VerifyAllgather(op.Bytes) }
		}
		return nil
	}
}

// tree binds a rooted coll.Team tree broadcast.
func tree(start func(t *coll.Team, root, n int, cb func(*collective.Result)) error) binder {
	return func(a *algorithm, cl *cluster.Cluster, hosts []topology.NodeID, opts Options) error {
		t, err := coll.NewTeam(cl, hosts, opts.Coll)
		if err != nil {
			return err
		}
		a.eng = t.Engine()
		a.start = func(op collective.Op, cb func(*collective.Result)) error { return start(t, op.Root, op.Bytes, cb) }
		a.verify = func(op collective.Op) error { return t.VerifyBroadcast(op.Root, op.Bytes) }
		return nil
	}
}

// incReduceScatter binds the SHARP-style in-network Reduce-Scatter. It
// creates the fabric reduce group on the first Start, rooted at a
// highest-level switch: the placement policy the multicast subgroups use.
func incReduceScatter(a *algorithm, cl *cluster.Cluster, hosts []topology.NodeID, opts Options) error {
	t, err := coll.NewTeam(cl, hosts, opts.Coll)
	if err != nil {
		return err
	}
	a.eng = t.Engine()
	f := cl.Fabric()
	var rg fabric.ReduceGroupID
	made := false
	a.start = func(op collective.Op, done func(*collective.Result)) error {
		if !made {
			roots := f.Graph().TopSwitches()
			if len(roots) == 0 {
				return fmt.Errorf("registry: topology has no switch to root a reduction tree")
			}
			g, err := f.CreateReduceGroup(roots[0], hosts)
			if err != nil {
				return err
			}
			rg, made = g, true
		}
		return t.StartINCReduceScatter(rg, op.Bytes, done)
	}
	return nil
}
