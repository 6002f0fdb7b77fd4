package repro

// Tests for the unified collective surface: every registry entry runs a
// small operation end to end on a 16-host system and produces a sane
// unified Result, and the registry dispatch reproduces the exact virtual
// times the pre-registry code paths produced for a fixed seed.

import (
	"testing"

	"repro/internal/coll"
	"repro/internal/core"
)

// newTestSystem builds the 16-host two-level fat-tree all registry tests
// share (same geometry as the ablation benchmarks).
func newTestSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(SystemConfig{Hosts: 16, HostsPerLeaf: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// supportedOp finds the operation kind an algorithm executes.
func supportedOp(alg Algorithm, n int) (Op, bool) {
	for _, k := range []Kind{Allgather, Broadcast, ReduceScatter} {
		op := Op{Kind: k, Bytes: n}
		if alg.Supports(op) {
			return op, true
		}
	}
	return Op{}, false
}

// TestRegistryAllAlgorithms runs every registered algorithm on a fresh
// 16-host system: each must support exactly the operations it claims and
// produce a Result with positive bandwidth.
func TestRegistryAllAlgorithms(t *testing.T) {
	names := Algorithms()
	if len(names) < 8 {
		t.Fatalf("registry lists %d algorithms, want >= 8: %v", len(names), names)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			sys := newTestSystem(t)
			alg, err := NewAlgorithm(sys, name, AlgorithmOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if alg.Name() != name {
				t.Fatalf("Name() = %q, want %q", alg.Name(), name)
			}
			op, ok := supportedOp(alg, 64<<10)
			if !ok {
				t.Fatalf("%s supports no operation on 16 ranks", name)
			}
			res, err := alg.Run(op)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ranks != 16 {
				t.Fatalf("Ranks = %d, want 16", res.Ranks)
			}
			if res.Duration() <= 0 {
				t.Fatalf("Duration = %v, want > 0", res.Duration())
			}
			if bw := res.AlgBandwidth(); bw <= 0 {
				t.Fatalf("AlgBandwidth = %f, want > 0", bw)
			}
			// A second run on the same warm instance must also complete.
			if _, err := alg.Run(op); err != nil {
				t.Fatalf("second run: %v", err)
			}
		})
	}
}

// TestRegistryDeterminism pins the registry dispatch to the exact virtual
// times the direct core.Communicator / coll.Team call paths produce for a
// fixed seed: one multicast and one ring case, 16 hosts, seed 3, 1 MiB.
// The ring value is bit-identical to the seed commit. The multicast value
// is pinned to the deterministic control-plane ordering (sorted ctrlPeers):
// the seed commit created control QPs in Go map-iteration order, so its
// mcast timings wandered a few hundred ns between runs of the same binary;
// the pinned value is one of the orderings the seed could produce.
func TestRegistryDeterminism(t *testing.T) {
	const (
		goldenMcast = 722976 // ns, mcast-allgather, UD, 4 subgroups
		goldenRing  = 678008 // ns, ring-allgather
	)
	sys := newTestSystem(t)
	mcast, err := NewAlgorithm(sys, "mcast-allgather", AlgorithmOptions{
		Core: core.Config{Subgroups: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mcast.Run(Op{Kind: Allgather, Bytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.Duration()) != goldenMcast {
		t.Errorf("mcast-allgather duration = %d ns, want seed-identical %d ns", int64(res.Duration()), goldenMcast)
	}

	sys2 := newTestSystem(t)
	ring, err := NewAlgorithm(sys2, "ring-allgather", AlgorithmOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := ring.Run(Op{Kind: Allgather, Bytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if int64(res2.Duration()) != goldenRing {
		t.Errorf("ring-allgather duration = %d ns, want seed-identical %d ns", int64(res2.Duration()), goldenRing)
	}
}

// TestRegistryVerifiedData checks end-to-end payload integrity through the
// unified surface for a multicast and a P2P algorithm.
func TestRegistryVerifiedData(t *testing.T) {
	cases := []struct {
		name string
		op   Op
		opts AlgorithmOptions
	}{
		{"mcast-allgather", Op{Kind: Allgather, Bytes: 32 << 10},
			AlgorithmOptions{Core: core.Config{VerifyData: true}}},
		{"knomial-broadcast", Op{Kind: Broadcast, Bytes: 32 << 10},
			AlgorithmOptions{Coll: coll.Config{VerifyData: true}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sys := newTestSystem(t)
			alg, err := NewAlgorithm(sys, c.name, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := alg.Run(c.op); err != nil {
				t.Fatal(err)
			}
			v, ok := alg.(Verifier)
			if !ok {
				t.Fatalf("%s does not implement Verifier", c.name)
			}
			if err := v.VerifyLast(c.op); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRegistryRejects covers the error paths: unknown names and
// unsupported operations.
func TestRegistryRejects(t *testing.T) {
	sys := newTestSystem(t)
	if _, err := NewAlgorithm(sys, "quantum-allgather", AlgorithmOptions{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	alg, err := NewAlgorithm(sys, "ring-allgather", AlgorithmOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if alg.Supports(Op{Kind: Broadcast, Bytes: 4096}) {
		t.Fatal("ring-allgather claims to support broadcast")
	}
	if _, err := alg.Run(Op{Kind: Broadcast, Bytes: 4096, Root: 0}); err == nil {
		t.Fatal("ring-allgather ran a broadcast")
	}

	// Recursive doubling needs a power-of-two team.
	sys12, err := NewSystem(SystemConfig{Hosts: 12, HostsPerLeaf: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := NewAlgorithm(sys12, "rd-allgather", AlgorithmOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rd.Supports(Op{Kind: Allgather, Bytes: 4096}) {
		t.Fatal("rd-allgather claims to support 12 ranks")
	}
}
