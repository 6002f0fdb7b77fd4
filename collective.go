// Package repro is the public face of the reproduction of "Network-
// Offloaded Bandwidth-Optimal Broadcast and Allgather for Distributed AI"
// (Khalilov et al., SC 2024): a deterministic simulation of RDMA fat-tree
// fabrics with hardware multicast, the paper's reliable multicast Broadcast
// and bandwidth-optimal Allgather protocols, a DPA SmartNIC offload model,
// and the point-to-point baselines they are evaluated against.
//
// Every collective — the multicast protocol and the P2P baselines alike —
// is reached through one unified surface: an Op describes the operation, an
// Algorithm executes it, and every algorithm produces the same Result type.
// Algorithms() lists the registry ("mcast-allgather", "ring-allgather",
// "knomial-broadcast", the composed "ring-allreduce"/"mcast-allreduce", …)
// and NewAlgorithm instantiates one entry over a System:
//
//	sys, _ := repro.NewSystem(repro.SystemConfig{Hosts: 16})
//	alg, _ := repro.NewAlgorithm(sys, "mcast-allgather", repro.AlgorithmOptions{})
//	res, _ := alg.Run(repro.Op{Kind: repro.Allgather, Bytes: 1 << 20})
//	fmt.Println(res.AlgBandwidth())
//
// Instances persist transport state (queue pairs, registered buffers)
// across Run calls, so repeated operations measure a warm communicator.
// Algorithms that implement Starter also run non-blocking for workloads
// that overlap collectives with compute (the FSDP example). The lower-level
// System.NewCommunicator / System.NewTeam constructors remain for direct
// protocol access.
//
// The heavy lifting lives in the internal packages: sim (event engine),
// topology, fabric, verbs, dpa, core (the paper's contribution), coll
// (baselines), collective (shared Op/Result types), registry (the
// algorithm table), model (analytic cost models), sweep (the declarative
// parameter-grid engine behind every benchmark surface), scenario
// (deterministic fault/straggler/multi-tenant perturbations, re-exported
// as Scenarios/NewScenario), harness (the sweep kernels behind every
// figure) and manifest (experiments as JSON documents, run by cmd/repro).
package repro

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/registry"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Workload is a declarative, deterministic DAG of steps — compute phases on
// the cluster's host-CPU model, collective phases on per-job communicators
// ("comms", serial streams of registry algorithms) — executed by any number
// of concurrent jobs on one fabric. It is the subsystem behind the FSDP
// training step of §II-A: prefetched Allgathers and trailing
// Reduce-Scatters overlapping with compute and with each other.
type Workload = workload.Workload

// WorkloadJob, WorkloadComm and WorkloadPhase are the declaration
// vocabulary for hand-built DAGs (the presets cover the common shapes);
// WorkloadSpan is one recorded phase execution (see Workload.OnSpan for
// per-completion observation).
type (
	WorkloadJob   = workload.Job
	WorkloadComm  = workload.Comm
	WorkloadPhase = workload.Phase
	WorkloadSpan  = workload.Span
)

// WorkloadConfig parameterizes a preset workload (nodes, layers, shard
// size, compute per layer, tenant count, replication segments).
type WorkloadConfig = workload.Config

// WorkloadReport is the outcome of a workload run: per-job step time,
// per-phase spans, and the achieved communication/computation overlap.
// WorkloadJobReport is one job's view.
type (
	WorkloadReport    = workload.Report
	WorkloadJobReport = workload.JobReport
)

// Workloads returns the names of every preset workload, sorted
// ("dfs-replica", "fsdp-inc", "fsdp-ring", "fsdp-tenants").
func Workloads() []string { return workload.Names() }

// NewWorkload builds the named preset workload for the configuration.
func NewWorkload(name string, cfg WorkloadConfig) (Workload, error) { return workload.New(name, cfg) }

// RunWorkload executes the workload's jobs concurrently on the system's
// fabric, driving the engine until every phase completes, and returns the
// finalized report.
func (s *System) RunWorkload(w Workload) (*WorkloadReport, error) {
	return workload.Run(s.Cluster, w)
}

// Scenario is a named, deterministic perturbation/workload schedule: link
// degradations and flaps, drop hotspots, straggler hosts, incast bursts
// and multi-tenant background flows, armed on a System's fabric. The
// "quiet" scenario is the identity.
type Scenario = scenario.Scenario

// ActiveScenario is the handle to an installed scenario: Stop it when the
// measured workload completes so the engine drains; Stats reports the
// perturbation and background-traffic counters.
type ActiveScenario = scenario.Active

// ScenarioStats summarizes what an installed scenario did to the fabric.
type ScenarioStats = scenario.Stats

// Scenarios returns the names of every registered scenario preset, sorted
// ("quiet", "flap-spine", "straggler-1pct", "tenant-50load", ...).
func Scenarios() []string { return scenario.Names() }

// NewScenario instantiates a registered scenario preset by name. The empty
// name is an alias for "quiet".
func NewScenario(name string) (Scenario, error) { return scenario.New(name) }

// ApplyScenario arms the scenario on the system's fabric at the current
// virtual time. Injector randomness derives from seed alone (splitmix64
// streams), never from the system's RNG, so applying "quiet" is
// observationally identical to not applying anything.
func (s *System) ApplyScenario(sc Scenario, seed uint64) *ActiveScenario {
	return sc.Install(s.Fabric, seed)
}

// Op describes one collective operation: see collective.Op.
type Op = collective.Op

// Kind names a collective operation.
type Kind = collective.Kind

// The operations the registry's algorithms implement.
const (
	Allgather     = collective.Allgather
	Broadcast     = collective.Broadcast
	ReduceScatter = collective.ReduceScatter
	Allreduce     = collective.Allreduce
)

// Result is the unified outcome of one collective across all ranks,
// shared by the multicast protocol and every baseline.
type Result = collective.Result

// RankStats is the optional per-rank critical-path extension of a Result
// (the Figure-10 breakdown, produced by the mcast-* algorithms).
type RankStats = collective.RankStats

// Algorithm is one executable collective algorithm bound to a system.
type Algorithm = collective.Algorithm

// Starter is implemented by algorithms that also run non-blocking.
type Starter = collective.Starter

// Verifier is implemented by algorithms that can check payload integrity
// of their most recent operation (requires VerifyData in the options).
type Verifier = registry.Verifier

// AlgorithmOptions parameterizes NewAlgorithm: the rank subset and the
// per-stack tuning knobs.
type AlgorithmOptions = registry.Options

// Algorithms returns the names of every registered collective algorithm,
// sorted: multicast broadcast/allgather, the P2P allgather and broadcast
// baselines, ring and in-network reduce-scatter, and the composed
// allreduces.
func Algorithms() []string { return registry.Names() }

// NewAlgorithm instantiates a registered algorithm on the system's shared
// per-host runtime. opts.Hosts nil means every host.
func NewAlgorithm(sys *System, name string, opts AlgorithmOptions) (Algorithm, error) {
	return registry.New(sys.Cluster, name, opts)
}

// SystemConfig shapes a simulated cluster.
type SystemConfig struct {
	// Hosts is the number of compute endpoints. Zero defaults to 16.
	Hosts int
	// Topology selects the network shape: "fattree2" (default), "fattree3",
	// "testbed188" (the paper's 18-switch UCC testbed; forces Hosts=188),
	// or "star".
	Topology string
	// FatTree parameters for "fattree2" (defaults: 16 hosts/leaf, enough
	// spines for 2:1 oversubscription) and "fattree3" (radix).
	HostsPerLeaf int
	Spines       int
	Radix        int
	// Fabric tunes link bandwidth, latency, MTU, drops.
	Fabric fabric.Config
	// Cluster tunes per-host CPU and transport parameters.
	Cluster cluster.Config
	// Seed fixes the simulation's random stream (default 1).
	Seed uint64
}

// System bundles one simulation: engine, topology, fabric and the shared
// per-host runtime.
type System struct {
	Engine  *sim.Engine
	Graph   *topology.Graph
	Fabric  *fabric.Fabric
	Cluster *cluster.Cluster
}

// NewSystem builds a simulated cluster.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.Hosts == 0 {
		cfg.Hosts = 16
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	var g *topology.Graph
	var err error
	switch cfg.Topology {
	case "", "fattree2":
		hpl := cfg.HostsPerLeaf
		if hpl == 0 {
			hpl = 16
		}
		spines := cfg.Spines
		if spines == 0 {
			spines = (hpl + 1) / 2
		}
		g, err = topology.TwoLevelFatTree(topology.FatTreeSpec{
			Hosts: cfg.Hosts, HostsPerLeaf: hpl, Spines: spines,
		})
	case "fattree3":
		radix := cfg.Radix
		if radix == 0 {
			radix = 8
		}
		g, err = topology.ThreeLevelFatTree(radix, cfg.Hosts)
	case "testbed188":
		g = topology.Testbed188()
	case "star":
		g = topology.Star(cfg.Hosts)
	default:
		return nil, fmt.Errorf("repro: unknown topology %q", cfg.Topology)
	}
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine(cfg.Seed)
	f := fabric.New(eng, g, cfg.Fabric)
	return &System{
		Engine:  eng,
		Graph:   g,
		Fabric:  f,
		Cluster: cluster.New(f, cfg.Cluster),
	}, nil
}

// Hosts returns all endpoint node IDs.
func (s *System) Hosts() []topology.NodeID { return s.Graph.Hosts() }

// NewCommunicator creates a multicast-collective communicator over the
// given hosts, sharing the system's per-host runtime.
func (s *System) NewCommunicator(hosts []topology.NodeID, cfg core.Config) (*core.Communicator, error) {
	return core.NewCommunicatorOn(s.Cluster, hosts, cfg)
}

// NewTeam creates a point-to-point baseline team over the given hosts,
// sharing the system's per-host runtime.
func (s *System) NewTeam(hosts []topology.NodeID, cfg coll.Config) (*coll.Team, error) {
	return coll.NewTeam(s.Cluster, hosts, cfg)
}

// Run drives the simulation until no events remain and returns the final
// virtual time.
func (s *System) Run() sim.Time { return s.Engine.Run() }
