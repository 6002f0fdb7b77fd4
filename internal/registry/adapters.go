package registry

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/topology"
)

// --- multicast protocol (internal/core) ----------------------------------------

// mcastAlg adapts a core.Communicator to the unified Algorithm surface.
type mcastAlg struct {
	name string
	kind collective.Kind
	comm *core.Communicator
}

// newMcast returns a builder for the multicast algorithm executing kind.
func newMcast(kind collective.Kind) builder {
	return func(name string, cl *cluster.Cluster, hosts []topology.NodeID, opts Options) (collective.Algorithm, error) {
		comm, err := core.NewCommunicatorOn(cl, hosts, opts.Core)
		if err != nil {
			return nil, err
		}
		return &mcastAlg{name: name, kind: kind, comm: comm}, nil
	}
}

func (a *mcastAlg) Name() string { return a.name }

func (a *mcastAlg) Supports(op collective.Op) bool { return op.Kind == a.kind && op.Bytes > 0 }

func (a *mcastAlg) Start(op collective.Op, done func(*collective.Result)) error {
	if !a.Supports(op) {
		return fmt.Errorf("registry: %s does not support %s", a.name, op.Kind)
	}
	if a.kind == collective.Broadcast {
		return a.comm.StartBroadcast(op.Root, op.Bytes, done)
	}
	return a.comm.StartAllgather(op.Bytes, done)
}

func (a *mcastAlg) Run(op collective.Op) (*collective.Result, error) {
	return collective.RunBlocking(a.name, a.comm.Engine(), func(done func(*collective.Result)) error {
		return a.Start(op, done)
	})
}

func (a *mcastAlg) VerifyLast(collective.Op) error { return a.comm.VerifyLast() }

// --- P2P baselines (internal/coll) ----------------------------------------------

// teamStart is the shape shared by every coll.Team non-blocking entry
// point that takes only a size (allgathers and the ring reduce-scatter).
type teamStart func(t *coll.Team, n int, cb func(*collective.Result)) error

// treeStart is the shape of the rooted tree-broadcast entry points.
type treeStart func(t *coll.Team, root, n int, cb func(*collective.Result)) error

// sizeCheck gates Supports on the team geometry.
type sizeCheck func(ranks int) bool

func anySize(int) bool          { return true }
func powerOfTwo(ranks int) bool { return ranks&(ranks-1) == 0 }

// teamAlg adapts one coll.Team entry point to the Algorithm surface.
type teamAlg struct {
	name  string
	kind  collective.Kind
	team  *coll.Team
	check sizeCheck
	start func(op collective.Op, cb func(*collective.Result)) error
}

// newTeamAlg builds rootless team algorithms (allgathers, reduce-scatter).
func newTeamAlg(kind collective.Kind, check sizeCheck, start teamStart) builder {
	return func(name string, cl *cluster.Cluster, hosts []topology.NodeID, opts Options) (collective.Algorithm, error) {
		team, err := coll.NewTeam(cl, hosts, opts.Coll)
		if err != nil {
			return nil, err
		}
		a := &teamAlg{name: name, kind: kind, team: team, check: check}
		a.start = func(op collective.Op, cb func(*collective.Result)) error {
			return start(team, op.Bytes, cb)
		}
		return a, nil
	}
}

// newTreeAlg builds the rooted tree broadcasts.
func newTreeAlg(start treeStart) builder {
	return func(name string, cl *cluster.Cluster, hosts []topology.NodeID, opts Options) (collective.Algorithm, error) {
		team, err := coll.NewTeam(cl, hosts, opts.Coll)
		if err != nil {
			return nil, err
		}
		a := &teamAlg{name: name, kind: collective.Broadcast, team: team, check: anySize}
		a.start = func(op collective.Op, cb func(*collective.Result)) error {
			return start(team, op.Root, op.Bytes, cb)
		}
		return a, nil
	}
}

func (a *teamAlg) Name() string { return a.name }

func (a *teamAlg) Supports(op collective.Op) bool {
	return op.Kind == a.kind && op.Bytes > 0 && a.check(a.team.Size())
}

func (a *teamAlg) Start(op collective.Op, done func(*collective.Result)) error {
	if !a.Supports(op) {
		return fmt.Errorf("registry: %s does not support %s over %d ranks", a.name, op.Kind, a.team.Size())
	}
	return a.start(op, done)
}

func (a *teamAlg) Run(op collective.Op) (*collective.Result, error) {
	return collective.RunBlocking(a.name, a.team.Engine(), func(done func(*collective.Result)) error {
		return a.Start(op, done)
	})
}

func (a *teamAlg) VerifyLast(op collective.Op) error {
	switch op.Kind {
	case collective.Broadcast:
		return a.team.VerifyBroadcast(op.Root, op.Bytes)
	case collective.Allgather:
		return a.team.VerifyAllgather(op.Bytes)
	}
	return fmt.Errorf("registry: %s cannot verify %s", a.name, op.Kind)
}
