// External tests: these exercise the cluster through the full stack
// (registry algorithms over shared nodes), which the in-package tests
// cannot import without a cycle.
package cluster_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/fabric"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/topology"
)

// startAG builds a ring Allgather over the cluster and starts one
// non-blocking operation, returning a pointer that receives the result.
func startAG(t *testing.T, cl *cluster.Cluster, bytes int) **collective.Result {
	t.Helper()
	alg, err := registry.New(cl, "ring-allgather", registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var res *collective.Result
	err = alg.Start(
		collective.Op{Kind: collective.Allgather, Bytes: bytes},
		func(r *collective.Result) { res = r })
	if err != nil {
		t.Fatal(err)
	}
	return &res
}

// TestConcurrentCollectivesShareInjectionBandwidth is the property the
// shared per-host runtime exists for (§II-A): two collectives running
// concurrently on one Node go through the same verbs context and NIC
// injection port, so together they are slower than either alone — they
// split the wire instead of each getting a private one.
func TestConcurrentCollectivesShareInjectionBandwidth(t *testing.T) {
	const bytes = 256 << 10
	run := func(concurrent int) sim.Time {
		eng := sim.NewEngine(1)
		f := fabric.New(eng, topology.Star(4), fabric.Config{})
		cl := cluster.New(f, cluster.Config{})
		results := make([]**collective.Result, concurrent)
		for i := range results {
			results[i] = startAG(t, cl, bytes)
		}
		eng.Run()
		var last sim.Time
		for i, r := range results {
			if *r == nil {
				t.Fatalf("collective %d of %d never finished", i, concurrent)
			}
			if d := (*r).Duration(); d > last {
				last = d
			}
		}
		return last
	}
	alone := run(1)
	together := run(2)
	if together <= alone {
		t.Fatalf("two concurrent collectives (%v) should be slower than one alone (%v): injection bandwidth not shared",
			together, alone)
	}
	// Splitting one wire two ways should cost meaningfully — at least
	// half again the solo duration — while staying bounded (they are not
	// fully serialized either).
	if together < alone*3/2 {
		t.Fatalf("contended duration %v barely above solo %v; expected ~2x", together, alone)
	}
	if together > alone*3 {
		t.Fatalf("contended duration %v more than 3x solo %v; expected ~2x", together, alone)
	}
}

// TestDisjointHostsDoNotContend is the control: the same pair of
// collectives on disjoint host sets of one fabric (distinct NICs, star
// topology) completes in the solo duration.
func TestDisjointHostsDoNotContend(t *testing.T) {
	const bytes = 256 << 10
	eng := sim.NewEngine(1)
	f := fabric.New(eng, topology.Star(8), fabric.Config{})
	cl := cluster.New(f, cluster.Config{})
	hosts := f.Graph().Hosts()
	var results []*collective.Result
	for _, sub := range [][]topology.NodeID{hosts[:4], hosts[4:]} {
		alg, err := registry.New(cl, "ring-allgather", registry.Options{Hosts: sub})
		if err != nil {
			t.Fatal(err)
		}
		if err := alg.Start(
			collective.Op{Kind: collective.Allgather, Bytes: bytes},
			func(r *collective.Result) { results = append(results, r) }); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if len(results) != 2 {
		t.Fatalf("finished %d of 2", len(results))
	}
	if d0, d1 := results[0].Duration(), results[1].Duration(); d0 != d1 {
		t.Fatalf("disjoint twins diverge: %v vs %v", d0, d1)
	}
}
