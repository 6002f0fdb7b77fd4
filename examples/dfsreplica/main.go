// Distributed file system replication: the paper's §VII deployment target
// for the constant-time Broadcast — replicating storage segments to a
// group of servers with a tight completion-time requirement. This example
// replicates a stream of segments over a lossy fabric, exercising the
// reliability slow path, and compares against a k-nomial tree replication.
//
// The replication stream is the "dfs-replica" workload preset: a DAG of
// segment broadcasts serialized on one multicast communicator, so the next
// segment posts the moment the previous completes — a storage pipeline
// instead of a hand-rolled loop. The k-nomial baseline runs through the
// same registry surface.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/coll"
	"repro/internal/fabric"
	"repro/internal/sim"
)

const (
	replicas     = 12
	segmentBytes = 1 << 20 // 1 MiB storage segments
	segments     = 8
	dropRate     = 1e-4 // injected fabric corruption (paper: 1e-12..1e-15)
)

func main() {
	total, recovered, err := replicate(segments)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("multicast replication: %d x %d MiB to %d replicas in %v (%.2f GiB/s per replica)\n",
		segments, segmentBytes>>20, replicas-1, total,
		float64(segments*segmentBytes)/total.Seconds()/(1<<30))
	fmt.Printf("  fabric drops repaired via RDMA-read fetch ring: %d chunks; all segments verified\n",
		recovered)

	p2pTotal, err := knomialBaseline(segments)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("k-nomial replication:  same job in %v -> multicast is %.2fx faster\n",
		p2pTotal, float64(p2pTotal)/float64(total))
}

// replicate streams segs segments through the dfs-replica workload on a
// lossy fabric: the bitmap + fetch-ring reliability layer must repair every
// loss. It returns the summed segment time and the repaired-chunk count.
func replicate(segs int) (sim.Time, int, error) {
	sys, err := repro.NewSystem(repro.SystemConfig{
		Hosts:        replicas,
		HostsPerLeaf: 4,
		Fabric:       fabric.Config{DropRate: dropRate},
		Seed:         11,
	})
	if err != nil {
		return 0, 0, err
	}
	w, err := repro.NewWorkload("dfs-replica", repro.WorkloadConfig{
		Nodes: replicas, ShardBytes: segmentBytes, Segments: segs, VerifyData: true,
	})
	if err != nil {
		return 0, 0, err
	}
	// Verify every segment end to end the moment it completes — the
	// communicator reuses its buffers for the next segment, so per-segment
	// integrity can only be checked from the completion hook.
	op := repro.Op{Kind: repro.Broadcast, Bytes: segmentBytes, Root: 0}
	var verifyErr error
	w.OnSpan = func(s repro.WorkloadSpan, alg repro.Algorithm) {
		if verifyErr != nil || alg == nil {
			return
		}
		if err := alg.VerifyLast(op); err != nil {
			verifyErr = fmt.Errorf("segment %s corrupted: %w", s.Phase, err)
		}
	}
	rep, err := sys.RunWorkload(w)
	if err != nil {
		return 0, 0, err
	}
	if verifyErr != nil {
		return 0, 0, verifyErr
	}
	var total sim.Time
	recovered := 0
	for _, span := range rep.Job("replicate").Spans {
		total += span.Duration()
		recovered += span.Result.MaxRecovered()
	}
	return total, recovered, nil
}

// knomialBaseline replicates the same stream over a k-nomial unicast tree
// (no drops injected, giving the baseline its best case).
func knomialBaseline(segs int) (sim.Time, error) {
	op := repro.Op{Kind: repro.Broadcast, Bytes: segmentBytes, Root: 0}
	sys, err := repro.NewSystem(repro.SystemConfig{Hosts: replicas, HostsPerLeaf: 4, Seed: 12})
	if err != nil {
		return 0, err
	}
	knomial, err := repro.NewAlgorithm(sys, "knomial-broadcast", repro.AlgorithmOptions{
		Coll: coll.Config{VerifyData: true},
	})
	if err != nil {
		return 0, err
	}
	var total sim.Time
	for seg := 0; seg < segs; seg++ {
		res, err := knomial.Run(op)
		if err != nil {
			return 0, err
		}
		if err := knomial.VerifyLast(op); err != nil {
			return 0, err
		}
		total += res.Duration()
	}
	return total, nil
}
