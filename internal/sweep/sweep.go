// Package sweep is the declarative parameter-grid engine behind every
// benchmark surface in this repository. The paper's evaluation is a grid of
// sweeps — message sizes × node counts × transports × thread counts across
// Figures 5–16 and the tables — and this package turns each of them into
// data instead of code: a Grid declares the axes, Expand produces one Spec
// per grid point (with a deterministic per-point seed derived from the grid
// index), Run executes a kernel over the points on a worker pool, and the
// resulting Records serialize to JSON for CI artifacts.
//
// Determinism is the contract: expanding the same Grid always yields the
// same Specs in the same row-major order with the same seeds, and Run
// collects Records in Spec order regardless of worker count, so the same
// grid produces byte-identical JSON on every run — the property the
// BENCH_*.json perf trajectory in CI stands on.
package sweep

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Spec is one fully-resolved point of a sweep: every axis a benchmark in
// this repository varies, plus the deterministic per-point seed. Unused
// axes stay at their zero value and are omitted from JSON.
type Spec struct {
	// Algorithm is a registry name ("mcast-allgather") or a driver-defined
	// scenario label ("ring-pair").
	Algorithm string `json:"algorithm,omitempty"`
	// Workload names the internal/workload preset the point runs
	// ("fsdp-inc", ...). Empty means the point is not an application-level
	// sweep.
	Workload string `json:"workload,omitempty"`
	// Op is the collective operation kind, where applicable.
	Op string `json:"op,omitempty"`
	// Nodes is the participating endpoint count.
	Nodes int `json:"nodes,omitempty"`
	// MsgBytes is the per-rank payload (collectives) or total receive
	// volume (rxbench).
	MsgBytes int `json:"msg_bytes,omitempty"`
	// Transport names the datapath: "ud", "uc", "cpu-ud", "cpu-rc".
	Transport string `json:"transport,omitempty"`
	// Threads is the worker-thread count of the datapath under test.
	Threads int `json:"threads,omitempty"`
	// ChunkSize is the fragmentation unit in bytes.
	ChunkSize int `json:"chunk_size,omitempty"`
	// Scenario names the internal/scenario preset the point runs under
	// ("flap-spine", "tenant-50load", ...). Empty means quiet.
	Scenario string `json:"scenario,omitempty"`
	// Seed is the simulation seed for this point, derived from the grid's
	// base seed and the point's index by PointSeed.
	Seed uint64 `json:"seed"`
	// Index is the point's position in the expanded grid (row-major).
	Index int `json:"index"`
}

// Key returns a stable identity string for the spec — every axis except
// Seed and Index — used to match points across runs of the same grid shape
// (Compare) even when base seeds differ.
func (s Spec) Key() string {
	return fmt.Sprintf("%s/%s/%s/n%d/b%d/%s/t%d/c%d/%s",
		s.Algorithm, s.Workload, s.Op, s.Nodes, s.MsgBytes, s.Transport, s.Threads, s.ChunkSize, s.Scenario)
}

// String renders the non-zero axes, for error messages and labels.
func (s Spec) String() string {
	var parts []string
	add := func(f string, v interface{}) { parts = append(parts, fmt.Sprintf(f, v)) }
	if s.Algorithm != "" {
		add("%s", s.Algorithm)
	}
	if s.Workload != "" {
		add("%s", s.Workload)
	}
	if s.Op != "" {
		add("%s", s.Op)
	}
	if s.Transport != "" {
		add("%s", s.Transport)
	}
	if s.Nodes != 0 {
		add("nodes=%d", s.Nodes)
	}
	if s.MsgBytes != 0 {
		add("bytes=%d", s.MsgBytes)
	}
	if s.Threads != 0 {
		add("threads=%d", s.Threads)
	}
	if s.ChunkSize != 0 {
		add("chunk=%d", s.ChunkSize)
	}
	if s.Scenario != "" {
		add("scenario=%s", s.Scenario)
	}
	if len(parts) == 0 {
		return fmt.Sprintf("point %d", s.Index)
	}
	return strings.Join(parts, " ")
}

// PointSeed derives the simulation seed for grid point index from the
// grid's base seed. The splitmix64 finalizer decorrelates neighboring
// indices, so every point gets an independent stream while remaining a
// pure function of (base, index) — the same grid always reproduces the
// same seeds.
func PointSeed(base uint64, index int) uint64 {
	seed := sim.Splitmix64(base ^ sim.Splitmix64(uint64(index)+1))
	if seed == 0 {
		seed = 1 // engines treat 0 as "default"; keep points distinct from it
	}
	return seed
}
