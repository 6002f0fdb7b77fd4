// Quickstart: build a 16-node fat-tree, run the bandwidth-optimal multicast
// Allgather through the unified algorithm registry, verify the gathered
// data, and compare traffic against the ring baseline — the one-screen tour
// of the library.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/core"
)

const ranks = 16

// outcome carries both algorithms' results for one message size.
type outcome struct {
	mcast, ring           *repro.Result
	mcastBytes, ringBytes uint64
}

func main() {
	const msg = 256 << 10 // 256 KiB per rank, an FSDP-typical shard size
	out, err := run(msg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("multicast allgather: %d ranks x %d KiB in %v (%.2f GiB/s per rank), data verified\n",
		ranks, msg>>10, out.mcast.Duration(), out.mcast.AlgBandwidth()/(1<<30))
	fmt.Printf("ring allgather:      same job in %v (%.2f GiB/s per rank)\n",
		out.ring.Duration(), out.ring.AlgBandwidth()/(1<<30))
	fmt.Printf("switch-port traffic: multicast %.1f MiB vs ring %.1f MiB -> %.2fx reduction (paper: ~2x)\n",
		float64(out.mcastBytes)/(1<<20), float64(out.ringBytes)/(1<<20),
		float64(out.ringBytes)/float64(out.mcastBytes))
}

// run executes the verified multicast Allgather and the ring baseline on
// fresh, identical fat-trees and returns both results with their
// switch-port traffic totals.
func run(msg int) (*outcome, error) {
	op := repro.Op{Kind: repro.Allgather, Bytes: msg}

	// A 16-host two-level fat-tree with 200 Gbit/s links.
	sys, err := repro.NewSystem(repro.SystemConfig{Hosts: ranks, HostsPerLeaf: 4})
	if err != nil {
		return nil, err
	}

	// The paper's protocol from the registry: UD multicast fast path, 4
	// parallel trees, real data so we can verify the result.
	mcast, err := repro.NewAlgorithm(sys, "mcast-allgather", repro.AlgorithmOptions{
		Core: core.Config{Subgroups: 4, VerifyData: true},
	})
	if err != nil {
		return nil, err
	}
	res, err := mcast.Run(op)
	if err != nil {
		return nil, err
	}
	if err := mcast.VerifyLast(op); err != nil {
		return nil, fmt.Errorf("allgather produced wrong bytes: %w", err)
	}

	// Same job with the ring baseline on a fresh, identical system —
	// swapping algorithms is just a different registry name.
	sys2, err := repro.NewSystem(repro.SystemConfig{Hosts: ranks, HostsPerLeaf: 4})
	if err != nil {
		return nil, err
	}
	ring, err := repro.NewAlgorithm(sys2, "ring-allgather", repro.AlgorithmOptions{})
	if err != nil {
		return nil, err
	}
	ringRes, err := ring.Run(op)
	if err != nil {
		return nil, err
	}
	return &outcome{
		mcast: res, ring: ringRes,
		mcastBytes: sys.Fabric.SwitchPortBytes(),
		ringBytes:  sys2.Fabric.SwitchPortBytes(),
	}, nil
}
