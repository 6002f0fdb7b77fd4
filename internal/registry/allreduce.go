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

// --- in-network-compute reduce-scatter -------------------------------------------

// incAlg adapts the SHARP-style in-network Reduce-Scatter, creating the
// fabric reduce group (rooted at a top-level switch, like the multicast
// trees) on first use.
type incAlg struct {
	name  string
	team  *coll.Team
	f     *fabric.Fabric
	hosts []topology.NodeID
	rg    fabric.ReduceGroupID
	rgOK  bool
}

func newINCReduceScatter(name string, cl *cluster.Cluster, hosts []topology.NodeID, opts Options) (collective.Algorithm, error) {
	team, err := coll.NewTeam(cl, hosts, opts.Coll)
	if err != nil {
		return nil, err
	}
	return &incAlg{name: name, team: team, f: cl.Fabric(), hosts: hosts}, nil
}

func (a *incAlg) Name() string { return a.name }

func (a *incAlg) Supports(op collective.Op) bool {
	return op.Kind == collective.ReduceScatter && op.Bytes > 0
}

func (a *incAlg) Start(op collective.Op, done func(*collective.Result)) error {
	if !a.Supports(op) {
		return fmt.Errorf("registry: %s does not support %s", a.name, op.Kind)
	}
	if !a.rgOK {
		// Root the reduction tree at a highest-level switch, the same
		// placement policy the multicast subgroups use.
		roots := a.f.Graph().TopSwitches()
		if len(roots) == 0 {
			return fmt.Errorf("registry: topology has no switch to root a reduction tree")
		}
		rg, err := a.f.CreateReduceGroup(roots[0], a.hosts)
		if err != nil {
			return err
		}
		a.rg, a.rgOK = rg, true
	}
	return a.team.StartINCReduceScatter(a.rg, op.Bytes, done)
}

func (a *incAlg) Run(op collective.Op) (*collective.Result, error) {
	return collective.RunBlocking(a.name, a.team.Engine(), func(done func(*collective.Result)) error {
		return a.Start(op, done)
	})
}

// --- composed allreduce ----------------------------------------------------------

// allreduceAlg is the composed Allreduce of the AI-training workload: a
// ring Reduce-Scatter over the P·shard working buffer, then an Allgather
// of the reduced shards — on the P2P ring ("ring-allreduce") or on the
// paper's multicast Allgather ("mcast-allreduce"), which frees the send
// path for the next layer's gradients (§II-A).
type allreduceAlg struct {
	name string
	team *coll.Team         // reduce-scatter half (and gather half when P2P)
	ag   collective.Starter // gather half
	eng  *sim.Engine
	// chainErr records a failure to launch the gather half from inside the
	// reduce-scatter completion callback (no error path crosses the event
	// loop). Run surfaces it after the engine drains; Start resets it per
	// operation so one failed chain does not poison the warm instance.
	chainErr error
}

// newAllreduce returns a builder composing ring Reduce-Scatter with the
// multicast (mcastGather) or ring Allgather.
func newAllreduce(mcastGather bool) builder {
	return func(name string, cl *cluster.Cluster, hosts []topology.NodeID, opts Options) (collective.Algorithm, error) {
		team, err := coll.NewTeam(cl, hosts, opts.Coll)
		if err != nil {
			return nil, err
		}
		a := &allreduceAlg{name: name, team: team, eng: team.Engine()}
		if mcastGather {
			comm, err := core.NewCommunicatorOn(cl, hosts, opts.Core)
			if err != nil {
				return nil, err
			}
			a.ag = &mcastAlg{name: "mcast-allgather", kind: collective.Allgather, comm: comm}
		} else {
			ra := &teamAlg{name: "ring-allgather", kind: collective.Allgather, team: team, check: anySize}
			ra.start = func(op collective.Op, cb func(*collective.Result)) error {
				return team.StartRingAllgather(op.Bytes, cb)
			}
			a.ag = ra
		}
		return a, nil
	}
}

func (a *allreduceAlg) Name() string { return a.name }

func (a *allreduceAlg) Supports(op collective.Op) bool {
	return op.Kind == collective.Allreduce && op.Bytes > 0
}

// Start begins the two-phase Allreduce. The ring Reduce-Scatter reduces
// the P·shard working buffer down to one shard per rank; its completion
// callback launches the Allgather of those shards, and the composed
// Result spans both phases. If the gather half fails to launch, done
// never fires (the engine runs dry) and Err reports the cause; the
// blocking Run surfaces it directly.
func (a *allreduceAlg) Start(op collective.Op, done func(*collective.Result)) error {
	if !a.Supports(op) {
		return fmt.Errorf("registry: %s does not support %s", a.name, op.Kind)
	}
	a.chainErr = nil
	p := a.team.Size()
	shard := (op.Bytes + p - 1) / p
	res := &collective.Result{
		Kind:      a.name,
		Ranks:     p,
		SendBytes: op.Bytes,
		RecvBytes: 2 * (p - 1) * shard, // both phases move P-1 shards per rank
		Start:     a.eng.Now(),
	}
	return a.team.StartRingReduceScatter(shard, func(*collective.Result) {
		err := a.ag.Start(collective.Op{Kind: collective.Allgather, Bytes: shard}, func(*collective.Result) {
			res.End = a.eng.Now()
			if done != nil {
				done(res)
			}
		})
		if err != nil {
			a.chainErr = fmt.Errorf("registry: %s gather phase: %w", a.name, err)
		}
	})
}

// Err reports whether the most recent Start's gather phase failed to
// launch — the one failure a non-blocking caller cannot see through the
// callback (done simply never fires).
func (a *allreduceAlg) Err() error { return a.chainErr }

func (a *allreduceAlg) Run(op collective.Op) (*collective.Result, error) {
	res, err := collective.RunBlocking(a.name, a.eng, func(done func(*collective.Result)) error {
		return a.Start(op, done)
	})
	if a.chainErr != nil {
		return nil, a.chainErr
	}
	return res, err
}
