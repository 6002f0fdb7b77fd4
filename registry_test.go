package repro

// Tests for the unified collective surface: every registry entry runs a
// small operation end to end on a 16-host system and produces a sane
// unified Result, and the registry dispatch reproduces the exact virtual
// times the pre-registry code paths produced for a fixed seed.

import (
	"reflect"
	"strings"
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

// kindOfName is the registry's naming rule, the oracle for Kind: every
// name ends in its operation ("ring-allgather" -> Allgather).
func kindOfName(name string) (Kind, bool) {
	for _, k := range []Kind{Allgather, Broadcast, ReduceScatter} {
		if strings.HasSuffix(name, "-"+string(k)) {
			return k, true
		}
	}
	return "", false
}

// TestRegistryAllAlgorithms runs every registered algorithm on twin
// 16-host systems of one seed. Each must name its operation by the naming
// rule and support only that one; started and driven by the engine, it
// must give the Result that Run gives on the twin, with positive
// bandwidth; a second run on the warm instance must complete; and
// VerifyLast must pass, or return an error for the two entries without a
// verifier.
func TestRegistryAllAlgorithms(t *testing.T) {
	names := Algorithms()
	if len(names) < 8 {
		t.Fatalf("registry lists %d algorithms, want >= 8: %v", len(names), names)
	}
	unverified := map[string]bool{"ring-reduce-scatter": true, "inc-reduce-scatter": true}
	opts := AlgorithmOptions{Core: core.Config{VerifyData: true}, Coll: coll.Config{VerifyData: true}}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			var sys [2]*System
			var alg [2]Algorithm
			for i := range alg {
				sys[i] = newTestSystem(t)
				var err error
				if alg[i], err = NewAlgorithm(sys[i], name, opts); err != nil {
					t.Fatal(err)
				}
			}
			if alg[0].Name() != name {
				t.Fatalf("Name() = %q, want %q", alg[0].Name(), name)
			}
			kind, ok := kindOfName(name)
			if !ok || alg[0].Kind() != kind {
				t.Fatalf("Kind() = %q, want %q from the name", alg[0].Kind(), kind)
			}
			for _, k := range []Kind{Allgather, Broadcast, ReduceScatter} {
				if alg[0].Supports(Op{Kind: k, Bytes: 64 << 10}) != (k == kind) {
					t.Fatalf("Supports(%s) = %v on 16 ranks", k, k != kind)
				}
			}
			op := Op{Kind: kind, Bytes: 64 << 10, Root: 3}
			var started *Result
			if err := alg[0].Start(op, func(r *Result) { started = r }); err != nil {
				t.Fatal(err)
			}
			sys[0].Run()
			res, err := alg[1].Run(op)
			if err != nil {
				t.Fatal(err)
			}
			if started == nil || !reflect.DeepEqual(started, res) {
				t.Fatalf("Start then System.Run gave %+v, Run gave %+v", started, res)
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
			for _, a := range alg {
				if err := a.VerifyLast(op); (err != nil) != unverified[name] {
					t.Errorf("VerifyLast = %v, want an error only without a verifier (%v)", err, unverified[name])
				}
			}
			// A second run on the same warm instance must also complete.
			if _, err := alg[1].Run(op); err != nil {
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
			if err := alg.VerifyLast(c.op); err != nil {
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
