package registry

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/collective"
	"repro/internal/fabric"
	"repro/internal/topology"
)

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
