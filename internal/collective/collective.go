// Package collective defines the shared vocabulary of every collective
// implementation in this repository: the operation descriptor (Op), the
// unified cross-rank outcome (Result, with the optional per-rank
// critical-path extension RankStats), the Algorithm interface that the
// multicast protocol (internal/core) and the P2P baselines (internal/coll)
// both satisfy through thin adapters (internal/registry), and the byte
// pattern both verify received data against.
//
// The package is a leaf: it depends only on the simulation clock, so both
// protocol layers can share its types without an import cycle.
package collective

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Kind names a collective operation.
type Kind string

// The operations the simulated stacks implement.
const (
	Allgather     Kind = "allgather"
	Broadcast     Kind = "broadcast"
	ReduceScatter Kind = "reduce-scatter"
)

// KindOfAlgorithm derives the operation kind from a registry algorithm
// name by its suffix ("ring-allgather" -> Allgather) — the naming
// convention every registry entry follows. Shared by the harness kernels
// and the workload engine so op derivation cannot diverge.
func KindOfAlgorithm(algo string) (Kind, error) {
	for _, k := range []Kind{Allgather, Broadcast, ReduceScatter} {
		if strings.HasSuffix(algo, "-"+string(k)) {
			return k, nil
		}
	}
	return "", fmt.Errorf("collective: cannot derive operation from algorithm %q", algo)
}

// Op describes one collective operation, independent of the algorithm that
// executes it.
type Op struct {
	// Kind selects the operation.
	Kind Kind
	// Bytes is the per-rank payload: the contribution size for Allgather,
	// the message size for Broadcast, and the per-rank
	// reduced-shard size for ReduceScatter.
	Bytes int
	// Root is the broadcasting rank (Broadcast only).
	Root int
}

// Algorithm is one executable collective algorithm bound to a system and a
// set of ranks. Implementations persist transport state (queue pairs,
// registered buffers) across Run calls, so repeated operations measure a
// warm communicator, as OSU-style benchmarks expect.
type Algorithm interface {
	// Name returns the registry name, e.g. "ring-allgather".
	Name() string
	// Supports reports whether Run can execute op on this instance.
	Supports(op Op) bool
	// Run executes op, driving the simulation engine until every rank
	// completes, and returns the unified result.
	Run(op Op) (*Result, error)
}

// Starter is implemented by algorithms that can also run non-blocking, for
// workloads that overlap collectives with compute or with one another
// (e.g. the FSDP pipeline). done fires when every rank has completed; the
// caller drives the engine.
type Starter interface {
	Start(op Op, done func(*Result)) error
}

// RunBlocking is the one blocking driver: it starts an operation through
// its non-blocking entry point, runs the engine until the queue drains, and
// enforces completion — the shared tail of every Algorithm.Run, and what
// tests of the protocol layers' Start* surfaces block through. name labels
// the deadlock error.
func RunBlocking(name string, eng *sim.Engine, start func(done func(*Result)) error) (*Result, error) {
	var res *Result
	if err := start(func(r *Result) { res = r }); err != nil {
		return nil, err
	}
	eng.Run()
	if res == nil {
		return nil, fmt.Errorf("collective: %s did not complete (deadlock?)", name)
	}
	return res, nil
}

// RankStats is the optional per-rank extension of a Result: the
// critical-path breakdown the multicast protocol reports (Figure 10).
type RankStats struct {
	Rank int
	// BarrierTime is the RNR-synchronization phase (task start to barrier
	// completion).
	BarrierTime sim.Time
	// McastTime is the multicast datapath phase (barrier completion to the
	// last chunk accounted).
	McastTime sim.Time
	// FinalTime is the completion phase (receive-done to operation done:
	// handshake plus DMA drain plus send-path tail).
	FinalTime sim.Time
	// Total is the end-to-end operation time at this rank.
	Total sim.Time
	// Recovered counts chunks repaired through the slow-path fetch ring.
	Recovered int
	// RNRDrops and Retransmits are transport-level failure counters.
	RNRDrops    uint64
	Retransmits uint64
	// BytesReceived is the payload volume landed in the receive buffer
	// from the network (excludes the local shard copy).
	BytesReceived int
}

// Result is the outcome of one collective across all ranks — the single
// result type shared by the multicast protocol, the P2P baselines, and the
// composed algorithms built on top of them.
type Result struct {
	Kind      string
	Seq       int
	Ranks     int
	SendBytes int
	Start     sim.Time
	End       sim.Time
	// RecvBytes is the per-rank payload received from the network, filled
	// by algorithms that do not track per-rank statistics.
	RecvBytes int
	// PerRank, when present, carries the per-rank critical-path breakdown;
	// AlgBandwidth then averages its BytesReceived fields instead of using
	// RecvBytes.
	PerRank []RankStats
}

// Duration is the global wall-clock (virtual) time of the operation.
func (res *Result) Duration() sim.Time { return res.End - res.Start }

// AlgBandwidth returns the per-rank algorithm bandwidth in bytes/second:
// receive-buffer payload divided by operation time, the metric Figure 11
// plots ("per-process receive throughput").
func (res *Result) AlgBandwidth() float64 {
	if res.Duration() <= 0 {
		return 0
	}
	return res.RecvPerRank() / res.Duration().Seconds()
}

// RecvPerRank returns the per-rank network receive payload in bytes: the
// PerRank average when the extension is present, RecvBytes otherwise.
func (res *Result) RecvPerRank() float64 {
	if len(res.PerRank) == 0 {
		return float64(res.RecvBytes)
	}
	var recv float64
	for _, s := range res.PerRank {
		recv += float64(s.BytesReceived)
	}
	return recv / float64(len(res.PerRank))
}

// MaxRecovered returns the largest per-rank recovered-chunk count.
func (res *Result) MaxRecovered() int {
	max := 0
	for _, s := range res.PerRank {
		if s.Recovered > max {
			max = s.Recovered
		}
	}
	return max
}

// FillPattern writes the data-verification pattern of (rank, seq) into b:
// what a rank's send buffer holds when a stack verifies data end to end.
func FillPattern(b []byte, rank, seq int) {
	for i := range b {
		b[i] = patternByte(rank, seq, i)
	}
}

// CheckPattern reports the first byte of b that differs from the pattern
// of (rank, seq).
func CheckPattern(b []byte, rank, seq int) error {
	for i := range b {
		if b[i] != patternByte(rank, seq, i) {
			return fmt.Errorf("byte %d = %#x, want %#x", i, b[i], patternByte(rank, seq, i))
		}
	}
	return nil
}

func patternByte(rank, seq, i int) byte {
	return byte(rank*131 + seq*29 + i*7 + i>>9)
}
