// Package scenario is a deterministic perturbation and background-workload
// subsystem: it schedules composable Injectors on the simulation engine to
// turn a quiet, healthy fabric into a production-like one — links that
// degrade and flap, drop-rate hotspots, straggler hosts, incast bursts, and
// persistent multi-tenant background flows occupying the same channels as
// the collective under test.
//
// Determinism is inherited from the rest of the stack: every injector draws
// randomness exclusively from its own splitmix64-derived RNG stream (a pure
// function of the installation seed and the injector's position), and all
// perturbations are sim.Engine events, so the same (scenario, seed) always
// produces the same perturbation schedule, byte for byte, at any sweep
// worker count. The "quiet" scenario is the identity: it schedules no
// events and touches no RNG, so installing it cannot move a single event
// relative to not installing anything.
//
// Scenarios are named and parametrized through a registry mirroring
// internal/registry: New("flap-spine") returns a ready-to-install preset,
// Names() lists all of them, and sweep grids carry the name on their
// Scenario axis so harness drivers can sweep algorithm × scenario.
package scenario

import (
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Injector is one composable perturbation source. Install is called once,
// at installation (virtual) time; implementations schedule their events
// through ctx.After and draw all randomness from ctx.RNG.
type Injector interface {
	Install(ctx *Context)
}

// Scenario is a named bundle of injectors, armed together on one fabric.
type Scenario struct {
	Name      string
	Injectors []Injector
}

// Context is the environment an injector runs in: the fabric it perturbs,
// the engine it schedules on, and its private deterministic RNG stream.
type Context struct {
	Eng *sim.Engine
	F   *fabric.Fabric
	RNG *sim.RNG
	// hosts is the workload scope (see InstallOn); nil means every host.
	hosts []topology.NodeID
	act   *Active
}

// Hosts returns the hosts the scenario is scoped to: the workload's
// participants when installed with InstallOn, every fabric host otherwise.
// Selectors and traffic injectors draw victims, stragglers and flow
// endpoints from this set, so perturbations land where the measured
// workload actually runs instead of dissipating across a mostly-idle
// production fabric.
func (c *Context) Hosts() []topology.NodeID {
	if c.hosts != nil {
		return c.hosts
	}
	return c.F.Graph().Hosts()
}

// After schedules fn d nanoseconds from now. The event is tracked by the
// Active handle: once Stop is called, pending events are cancelled and new
// ones are not scheduled, so the engine can run dry after the workload
// completes even for injectors that re-arm forever. Scheduling goes through
// the engine's pooled handler path — per-packet injectors (the tenant
// flows) re-arm without allocating an event or a wrapper closure, since fn
// itself is a long-lived closure built once per flow.
func (c *Context) After(d sim.Time, fn func()) {
	if c.act.stopped {
		return
	}
	h := c.Eng.AfterHandler(d, c.act, 0, 0, fn)
	c.act.pending[h] = struct{}{}
}

// Perturbed counts one perturbation application (a flap onset, a
// degradation, a re-jitter, a burst) on the Active handle's stats.
func (c *Context) Perturbed() { c.act.stats.Perturbs++ }

// Restored counts one restoration (flap recovery, degradation end).
func (c *Context) Restored() { c.act.stats.Restores++ }

// Stats summarizes what an installed scenario did to the fabric.
type Stats struct {
	// Perturbs counts perturbation applications; Restores counts explicit
	// restorations. A completed flap contributes one of each.
	Perturbs int
	Restores int
	// Background traffic injected so far (from the fabric's gauges).
	BackgroundPackets uint64
	BackgroundBytes   uint64
}

// Active is the handle to an installed scenario.
type Active struct {
	f       *fabric.Fabric
	stopped bool
	pending map[sim.Handle]struct{}
	stats   Stats
}

// OnEvent fires one tracked injector event: ev keys the pending set (the
// engine hands back exactly the Handle AfterHandler returned), obj is the
// injector's callback.
func (a *Active) OnEvent(_ *sim.Engine, ev sim.Handle, _ uint64, _ int, obj any) {
	delete(a.pending, ev)
	if a.stopped {
		return
	}
	obj.(func())()
}

// Stop cancels every pending perturbation event and prevents re-arming, so
// the engine drains once the measured workload is done. Overrides applied
// to the fabric are left in place (the simulation is over); use a fresh
// fabric per measurement, as every kernel in this repository does.
// Cancellation is generation-checked, so a handle whose event has already
// fired (and been recycled by the engine's pool) is skipped, not corrupted.
func (a *Active) Stop() {
	if a.stopped {
		return
	}
	a.stopped = true
	for h := range a.pending {
		h.Cancel()
	}
	a.pending = nil
}

// Stats returns the perturbation counters and the fabric's background
// traffic gauges.
func (a *Active) Stats() Stats {
	s := a.stats
	s.BackgroundPackets = a.f.BackgroundInjected
	s.BackgroundBytes = a.f.BackgroundBytes
	return s
}

// Install arms every injector on the fabric's engine at the current virtual
// time and returns the handle to stop and observe them. Each injector gets
// its own RNG stream derived from (seed, injector index) with splitmix64,
// never from the engine's RNG — so installing a scenario with no injectors
// (quiet) is observationally identical to installing nothing.
func (sc Scenario) Install(f *fabric.Fabric, seed uint64) *Active {
	return sc.InstallOn(f, nil, seed)
}

// InstallOn is Install scoped to a workload: injectors pick stragglers,
// incast victims, tenant-flow endpoints and flapped/degraded paths from
// (and between) the given hosts rather than the whole fabric. nil means
// every host. Use it when the measured workload runs on a subset of a
// larger topology, or the perturbations mostly land on idle hardware.
func (sc Scenario) InstallOn(f *fabric.Fabric, hosts []topology.NodeID, seed uint64) *Active {
	act := &Active{f: f, pending: make(map[sim.Handle]struct{})}
	for i, inj := range sc.Injectors {
		rng := sim.NewRNG(sim.Splitmix64(seed ^ sim.Splitmix64(uint64(i)+0x5ce7a110)))
		inj.Install(&Context{Eng: f.Engine(), F: f, RNG: rng, hosts: hosts, act: act})
	}
	return act
}

// --- the named preset registry ---------------------------------------------------

// Quiet is the identity scenario: a healthy, idle fabric.
const Quiet = "quiet"

// builder constructs one named preset. Builders run per instantiation so
// scenarios never share injector state.
type builder func() Scenario

var presets = map[string]builder{
	Quiet: func() Scenario {
		return Scenario{Name: Quiet}
	},
	// One spine switch's links flap: 20 µs outages (every traversal
	// drops) roughly every 150 µs, exercising the reliability slow path
	// and adaptive rerouting.
	"flap-spine": func() Scenario {
		return Scenario{Name: "flap-spine", Injectors: []Injector{
			LinkFlap{Select: RandomSpine, Start: 30 * sim.Microsecond,
				Period: 150 * sim.Microsecond, Down: 20 * sim.Microsecond,
				Jitter: 10 * sim.Microsecond},
		}}
	},
	// One random leaf's uplinks run at half bandwidth with 1 µs extra
	// latency for the rest of the run (a misbehaving cable/SerDes).
	"degrade-leaf": func() Scenario {
		return Scenario{Name: "degrade-leaf", Injectors: []Injector{
			LinkDegrade{Select: RandomLeafUplinks, Scale: 0.5,
				ExtraLatency: sim.Microsecond, Start: 10 * sim.Microsecond},
		}}
	},
	// One spine's links corrupt 0.1% of traversals — a BER hotspot far
	// above the paper's 1e-12..1e-15, keeping recovery busy.
	"hotspot-drop": func() Scenario {
		return Scenario{Name: "hotspot-drop", Injectors: []Injector{
			DropHotspot{Select: RandomSpine, Rate: 1e-3},
		}}
	},
	// 1% of hosts (at least one) are stragglers: their NIC links run at
	// half speed with up to 2 µs of injection latency re-rolled every
	// 50 µs.
	"straggler-1pct": func() Scenario {
		return Scenario{Name: "straggler-1pct", Injectors: []Injector{
			Straggler{Fraction: 0.01, Scale: 0.5,
				ExtraLatency: 2 * sim.Microsecond, Rejitter: 50 * sim.Microsecond},
		}}
	},
	// Multi-tenant neighbors: every host sources one persistent flow to a
	// random peer at 20% / 50% of its link bandwidth, on the same channels
	// as the collective.
	"tenant-20load": func() Scenario {
		return Scenario{Name: "tenant-20load", Injectors: []Injector{
			BackgroundTraffic{Load: 0.20},
		}}
	},
	"tenant-50load": func() Scenario {
		return Scenario{Name: "tenant-50load", Injectors: []Injector{
			BackgroundTraffic{Load: 0.50},
		}}
	},
	// Periodic 4-to-1 incast bursts (128 KiB per source) onto a rotating
	// victim — the §IV-A congestion signature.
	"incast-4to1": func() Scenario {
		return Scenario{Name: "incast-4to1", Injectors: []Injector{
			Incast{Fanin: 4, BurstBytes: 128 << 10,
				Period: 100 * sim.Microsecond, Start: 20 * sim.Microsecond},
		}}
	},
}

// Names returns every registered scenario name, sorted.
func Names() []string {
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// New instantiates the named preset. The empty name is an alias for quiet,
// so a sweep Spec without a Scenario axis maps to the identity.
func New(name string) (Scenario, error) {
	if name == "" {
		name = Quiet
	}
	b, ok := presets[name]
	if !ok {
		return Scenario{}, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, Names())
	}
	return b(), nil
}
