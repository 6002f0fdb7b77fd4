// Preset workloads: the named DAG declarations behind repro.Workloads(),
// the harness training kernel, and train manifests. Each preset is a pure
// function of Config — expanding one never touches an engine, and it holds
// no run-time handle (telemetry comes from the cluster it runs on) — so
// the same name and config always declare the identical DAG.
package workload

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/sim"
)

// Config parameterizes a preset workload.
type Config struct {
	// Nodes is the host count per job. Zero defaults to 16.
	Nodes int
	// Layers is the model depth of the FSDP presets. Zero defaults to 6.
	Layers int
	// ShardBytes is the per-rank parameter shard per layer (FSDP) or the
	// segment size (replication). Zero defaults to 512 KiB.
	ShardBytes int
	// Compute is the forward+backward time per layer. Zero defaults to
	// 150 µs.
	Compute sim.Time
	// Segments is the replication-stream length. Zero defaults to 8.
	Segments int
	// VerifyData backs collective buffers with real bytes so the result
	// can be verified (replication preset).
	VerifyData bool
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 16
	}
	if c.Layers == 0 {
		c.Layers = 6
	}
	if c.ShardBytes == 0 {
		c.ShardBytes = 512 << 10
	}
	if c.Compute == 0 {
		c.Compute = 150 * sim.Microsecond
	}
	if c.Segments == 0 {
		c.Segments = 8
	}
	return c
}

// presets maps workload names to their builders.
var presets = map[string]func(Config) Workload{
	"fsdp-ring": func(c Config) Workload {
		return Workload{Name: "fsdp-ring", Jobs: []Job{FSDPJob("fsdp", "ring", c, 0)}}
	},
	"fsdp-inc": func(c Config) Workload {
		return Workload{Name: "fsdp-inc", Jobs: []Job{FSDPJob("fsdp", "inc", c, 0)}}
	},
	"fsdp-tenants": multiTenant,
	"dfs-replica":  dfsReplica,
}

// Names returns every preset workload name, sorted.
func Names() []string {
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// New builds the named preset for the given configuration.
func New(name string, cfg Config) (Workload, error) {
	b, ok := presets[name]
	if !ok {
		return Workload{}, fmt.Errorf("workload: unknown workload %q (have %v)", name, Names())
	}
	return b(cfg.withDefaults()), nil
}

// FSDPJob declares one fully-sharded-data-parallel training step (§II-A)
// as a DAG: the Allgather for layer l+1's sharded weights prefetches behind
// layer l's compute (serialized on the "ag" stream), each layer's compute
// waits on its weights and the previous layer, and gradient Reduce-Scatters
// trail the compute on the "rs" stream — Allgather, Reduce-Scatter, and
// compute all overlapping and contending for injection bandwidth. pair
// selects the collective pairing: "ring" ({ring AG, ring RS}, the
// conventional UCC/NCCL stack) or "inc" ({multicast AG, in-network RS}, the
// paper's receive-path/send-path split with every chain active, §IV-A).
func FSDPJob(name, pair string, cfg Config, hostOffset int) Job {
	cfg = cfg.withDefaults()
	var ag, rs Comm
	switch pair {
	case "ring":
		ag = Comm{Name: "ag", Algorithm: "ring-allgather"}
		rs = Comm{Name: "rs", Algorithm: "ring-reduce-scatter"}
	case "inc":
		// Multicast Allgather on the receive path with every chain active
		// (the send path belongs to the Reduce-Scatter stream), in-network
		// Reduce-Scatter on the send path.
		ag = Comm{Name: "ag", Algorithm: "mcast-allgather", Options: registry.Options{
			Core: core.Config{Subgroups: 4, Chains: cfg.Nodes},
		}}
		rs = Comm{Name: "rs", Algorithm: "inc-reduce-scatter"}
	default:
		panic(fmt.Sprintf("workload: unknown FSDP pair %q (ring or inc)", pair))
	}
	j := Job{Name: name, HostOffset: hostOffset, HostCount: cfg.Nodes, Comms: []Comm{ag, rs}}
	for l := 0; l < cfg.Layers; l++ {
		agName := fmt.Sprintf("ag%d", l)
		compName := fmt.Sprintf("compute%d", l)
		compDeps := []string{agName}
		if l > 0 {
			compDeps = append(compDeps, fmt.Sprintf("compute%d", l-1))
		}
		j.Phases = append(j.Phases,
			// Weight prefetches serialize on the "ag" stream in layer order.
			Phase{Name: agName, Comm: "ag", Bytes: cfg.ShardBytes},
			Phase{Name: compName, After: compDeps, Compute: cfg.Compute},
			// Gradients reduce-scatter behind later layers' compute.
			Phase{Name: fmt.Sprintf("rs%d", l), After: []string{compName}, Comm: "rs", Bytes: cfg.ShardBytes},
		)
	}
	return j
}

// tenants is the concurrent-job count of the multi-job preset.
const tenants = 2

// multiTenant declares tenants concurrent inc-pair FSDP trainers on
// disjoint host slices of one fabric — the multi-job tenancy axis of the
// roadmap.
func multiTenant(c Config) Workload {
	w := Workload{Name: "fsdp-tenants"}
	for i := 0; i < tenants; i++ {
		w.Jobs = append(w.Jobs, FSDPJob(fmt.Sprintf("tenant%d", i), "inc", c, i*c.Nodes))
	}
	return w
}

// dfsReplica declares the §VII storage-replication stream: Segments
// broadcasts of ShardBytes each, serialized on one multicast comm (the
// replication pipeline of the DFS example). VerifyData enables end-to-end
// payload checks through the Report's algorithm handle.
func dfsReplica(c Config) Workload {
	j := Job{
		Name:      "replicate",
		HostCount: c.Nodes,
		Comms: []Comm{{Name: "bcast", Algorithm: "mcast-broadcast", Options: registry.Options{
			Core: core.Config{
				Subgroups:   2,
				VerifyData:  c.VerifyData,
				CutoffAlpha: 200 * sim.Microsecond,
			},
		}}},
	}
	for s := 0; s < c.Segments; s++ {
		j.Phases = append(j.Phases, Phase{
			Name: fmt.Sprintf("seg%d", s), Comm: "bcast", Bytes: c.ShardBytes,
		})
	}
	return Workload{Name: "dfs-replica", Jobs: []Job{j}}
}
