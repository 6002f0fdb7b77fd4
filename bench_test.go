package repro

// One benchmark per table and figure of the paper's evaluation. Each
// iteration runs the corresponding harness experiment on the simulator and
// reports the headline quantity through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates every result series. `repro run manifests/fig10.json` (and
// fig11, fig12, dpa-figures, cost) prints the full tables at paper scale;
// the benchmarks run the same harness kernels over bounded grids so the
// whole suite completes in minutes. These are
// hand-run benches: the committed perf trajectory is the host-time ledger
// (bench/, perf/*.json).

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/verbs"
)

// figure runs one figure's specs through its kernel, the way
// manifest.Compile wires them behind `repro`.
func figure(b *testing.B, specs []sweep.Spec, k sweep.Func) []sweep.Record {
	b.Helper()
	recs, err := sweep.Run(specs, 0, k)
	if err != nil {
		b.Fatal(err)
	}
	return recs
}

// BenchmarkFig02TrafficModel evaluates the analytic traffic model on the
// 1024-node radix-32 fat-tree and reports the ring/multicast savings.
func BenchmarkFig02TrafficModel(b *testing.B) {
	var savings float64
	for i := 0; i < b.N; i++ {
		g, err := topology.ThreeLevelFatTree(32, 1024)
		if err != nil {
			b.Fatal(err)
		}
		m, err := model.NewTrafficModel(g)
		if err != nil {
			b.Fatal(err)
		}
		savings = m.Savings(1 << 20)
	}
	b.ReportMetric(savings, "x-savings")
}

// BenchmarkFig05SingleCoreDatapath compares one CPU thread against one DPA
// core on the UD datapath at 1 MiB messages.
func BenchmarkFig05SingleCoreDatapath(b *testing.B) {
	var cpu, dpa float64
	for i := 0; i < b.N; i++ {
		specs := sweep.Concat(
			sweep.Grid{Transports: []string{"cpu-ud"}, Threads: []int{1}, ChunkSizes: []int{4096}, MsgBytes: []int{1 << 20}, Seed: 5}.Expand(),
			sweep.Grid{Transports: []string{"ud"}, Threads: []int{16}, ChunkSizes: []int{4096}, MsgBytes: []int{1 << 20}, Seed: 55}.Expand())
		recs := figure(b, specs, harness.RxKernel(harness.Env{}))
		cpu, dpa = recs[0].Metric("gbps"), recs[1].Metric("gbps")
	}
	b.ReportMetric(cpu, "cpu-Gbps")
	b.ReportMetric(dpa, "dpa-Gbps")
}

// BenchmarkFig07BitmapModel evaluates the PSN-bits sizing model.
func BenchmarkFig07BitmapModel(b *testing.B) {
	var buf float64
	for i := 0; i < b.N; i++ {
		pts := model.BitmapModel(10, 30, 4096)
		buf = pts[len(pts)-1].MaxRecvBuffer
		_ = model.MaxBufferFittingLLC(4096)
	}
	b.ReportMetric(buf/(1<<30), "max-GiB")
}

// BenchmarkFig10Breakdown measures the critical-path phase split of the
// multicast Allgather at 64 testbed nodes, 256 KiB.
func BenchmarkFig10Breakdown(b *testing.B) {
	var mcastFrac float64
	for i := 0; i < b.N; i++ {
		g := sweep.Grid{Algorithms: []string{"mcast-allgather"}, Nodes: []int{64}, MsgBytes: []int{256 << 10}, Seed: 10}
		recs := figure(b, g.Expand(), harness.CollKernel(harness.Env{}))
		mcastFrac = recs[0].Metric("mcast_frac")
	}
	b.ReportMetric(mcastFrac*100, "%mcast-phase")
}

// BenchmarkFig11ThroughputAtScale measures per-rank receive throughput of
// every algorithm at 64 nodes, 256 KiB (use `repro run
// manifests/fig11.json` for the full 188-node sweep).
func BenchmarkFig11ThroughputAtScale(b *testing.B) {
	byAlgo := map[string]float64{}
	for i := 0; i < b.N; i++ {
		specs := sweep.Concat(
			sweep.Grid{Algorithms: []string{"mcast-broadcast", "knomial-broadcast", "binary-broadcast", "mcast-allgather", "ring-allgather"},
				Nodes: []int{64}, MsgBytes: []int{256 << 10}, Seed: 11}.Expand(),
			sweep.Grid{Algorithms: []string{"chain-broadcast"},
				Nodes: []int{64}, MsgBytes: []int{256 << 10}, ChunkSizes: []int{16 << 10}, Seed: 112}.Expand())
		for _, r := range figure(b, specs, harness.CollKernel(harness.Env{})) {
			byAlgo[r.Spec.Algorithm] = r.Metric("gibps")
		}
	}
	b.ReportMetric(byAlgo["mcast-broadcast"], "mcastBcast-GiB/s")
	b.ReportMetric(byAlgo["knomial-broadcast"], "knomial-GiB/s")
	b.ReportMetric(byAlgo["binary-broadcast"], "binary-GiB/s")
	b.ReportMetric(byAlgo["mcast-allgather"], "mcastAG-GiB/s")
	b.ReportMetric(byAlgo["ring-allgather"], "ringAG-GiB/s")
}

// BenchmarkFig12TrafficSavings reads simulated switch-port counters while
// running multicast and P2P collectives at 64 nodes.
func BenchmarkFig12TrafficSavings(b *testing.B) {
	savings := map[string]float64{}
	for i := 0; i < b.N; i++ {
		g := sweep.Grid{Algorithms: []string{"mcast-broadcast", "knomial-broadcast", "mcast-allgather", "ring-allgather"},
			Nodes: []int{64}, MsgBytes: []int{64 << 10}, Seed: 12}
		recs := figure(b, g.Expand(), harness.TrafficKernel(harness.Env{}))
		harness.AnnotateSavings(recs)
		for _, r := range recs {
			savings[r.Spec.Algorithm] = r.Metric("savings_vs_p2p")
		}
	}
	b.ReportMetric(savings["mcast-broadcast"], "bcast-savings-x")
	b.ReportMetric(savings["mcast-allgather"], "allgather-savings-x")
}

// BenchmarkTable1SingleThread measures both single-thread DPA datapaths.
func BenchmarkTable1SingleThread(b *testing.B) {
	gibps := map[string]float64{}
	for i := 0; i < b.N; i++ {
		g := sweep.Grid{Transports: []string{"uc", "ud"}, Threads: []int{1}, ChunkSizes: []int{4096}, MsgBytes: []int{8 << 20}, Seed: 1}
		for _, r := range figure(b, g.Expand(), harness.RxKernel(harness.Env{})) {
			gibps[r.Spec.Transport] = r.Metric("gibps")
		}
	}
	b.ReportMetric(gibps["uc"], "UC-GiB/s")
	b.ReportMetric(gibps["ud"], "UD-GiB/s")
}

// BenchmarkFig13ThreadScaling reports link saturation points of the DPA
// receive datapaths.
func BenchmarkFig13ThreadScaling(b *testing.B) {
	var ud8, uc4 float64
	for i := 0; i < b.N; i++ {
		specs := sweep.Concat(
			sweep.Grid{Transports: []string{"ud", "uc"}, Threads: []int{4, 8}, ChunkSizes: []int{4096}, MsgBytes: []int{8 << 20}, Seed: 13}.Expand(),
			sweep.Grid{Transports: []string{"cpu-ud"}, Threads: []int{1}, ChunkSizes: []int{4096}, MsgBytes: []int{8 << 20}, Seed: 14}.Expand())
		for _, r := range figure(b, specs, harness.RxKernel(harness.Env{})) {
			if r.Spec.Transport == "ud" && r.Spec.Threads == 8 {
				ud8 = r.Metric("gibps")
			}
			if r.Spec.Transport == "uc" && r.Spec.Threads == 4 {
				uc4 = r.Metric("gibps")
			}
		}
	}
	b.ReportMetric(ud8, "UD@8thr-GiB/s")
	b.ReportMetric(uc4, "UC@4thr-GiB/s")
}

// BenchmarkFig14LinkUtilization reports the single-thread fraction of the
// 200 Gbit/s link for both datapaths (1/256 of DPA capacity).
func BenchmarkFig14LinkUtilization(b *testing.B) {
	var ud, uc float64
	for i := 0; i < b.N; i++ {
		ud = harness.RunRxBench(harness.Env{}, harness.RxBenchConfig{
			Transport: verbs.UD, Workers: 1, ChunkBytes: 4096, TotalBytes: 8 << 20,
		}).LinkShare
		uc = harness.RunRxBench(harness.Env{}, harness.RxBenchConfig{
			Transport: verbs.UC, Workers: 1, ChunkBytes: 4096, TotalBytes: 8 << 20,
		}).LinkShare
	}
	b.ReportMetric(ud*100, "UD-%peak")
	b.ReportMetric(uc*100, "UC-%peak")
}

// BenchmarkFig15ChunkSize reports UC throughput with 64 KiB multi-packet
// chunks on a single thread.
func BenchmarkFig15ChunkSize(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		g := sweep.Grid{Transports: []string{"uc"}, Threads: []int{1}, ChunkSizes: []int{64 << 10}, MsgBytes: []int{8 << 20}, Seed: 15}
		recs := figure(b, g.Expand(), harness.RxKernel(harness.Env{}))
		share = recs[0].Metric("link_share")
	}
	b.ReportMetric(share*100, "UC-64KiB-1thr-%peak")
}

// BenchmarkFig16TbitScaling reports the 64 B chunk processing rate at 128
// threads against the 1.6 Tbit/s requirement.
func BenchmarkFig16TbitScaling(b *testing.B) {
	rate := map[string]float64{}
	for i := 0; i < b.N; i++ {
		g := sweep.Grid{Transports: []string{"ud", "uc"}, Threads: []int{128}, ChunkSizes: []int{64}, Seed: 16}
		for _, r := range figure(b, g.Expand(), harness.ChunkRateKernel(harness.Env{})) {
			rate[r.Spec.Transport] = r.Metric("chunk_rate")
		}
	}
	b.ReportMetric(rate["ud"]/1e6, "UD-Mchunks/s")
	b.ReportMetric(rate["uc"]/1e6, "UC-Mchunks/s")
	b.ReportMetric(harness.Tbit16Target/1e6, "target-Mchunks/s")
}

// BenchmarkAllreduce16 runs the composed multicast Allreduce (ring
// Reduce-Scatter + multicast Allgather) at 16 ranks / 1 MiB on a warm
// communicator: the end-to-end event-engine workload the scheduler
// overhaul targets. Reported events/sec is simulated events per wall
// second across the whole stack (fabric, verbs, DPA, protocol); allocs/op
// is the per-operation garbage of the pooled engine.
func BenchmarkAllreduce16(b *testing.B) {
	sys, err := NewSystem(SystemConfig{Hosts: 16, HostsPerLeaf: 4, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	alg, err := NewAlgorithm(sys, "mcast-allreduce", AlgorithmOptions{})
	if err != nil {
		b.Fatal(err)
	}
	op := Op{Kind: Allreduce, Bytes: 1 << 20}
	if _, err := alg.Run(op); err != nil { // warm QPs, buffers, event pool
		b.Fatal(err)
	}
	start := sys.Engine.Executed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Run(op); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	executed := sys.Engine.Executed - start
	b.ReportMetric(float64(executed)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(executed)/float64(b.N), "events/op")
}

// BenchmarkAppBSpeedup measures the concurrent {AG, RS} speedup at P=16
// against the closed-form 2 - 2/P.
func BenchmarkAppBSpeedup(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		specs := sweep.Grid{Algorithms: harness.PairAlgorithms, Nodes: []int{16}, MsgBytes: []int{1 << 20}, Seed: 21}.Expand()
		recs := figure(b, specs, harness.PairKernel(harness.Env{}))
		speedup = recs[0].Metric("span_ns") / recs[1].Metric("span_ns") // ring-pair over inc-pair
	}
	b.ReportMetric(speedup, "measured-x")
	b.ReportMetric(model.SpeedupINC(16), "model-x")
}

// BenchmarkWorkloadStep measures one full FSDP training step — the
// declarative workload DAG with prefetched multicast Allgathers, in-network
// Reduce-Scatters and per-layer compute at 16 ranks / 512 KiB shards —
// including system construction, as an application deploying the library
// would run it. events/op is the deterministic per-step event count.
func BenchmarkWorkloadStep(b *testing.B) {
	var executed uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(SystemConfig{Hosts: 16, Topology: "star", Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		w, err := NewWorkload("fsdp-inc", WorkloadConfig{Nodes: 16})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.RunWorkload(w); err != nil {
			b.Fatal(err)
		}
		executed += sys.Engine.Executed
	}
	b.StopTimer()
	b.ReportMetric(float64(executed)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(executed)/float64(b.N), "events/op")
}
