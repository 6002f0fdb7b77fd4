package harness

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/verbs"
	"repro/internal/workload"
)

// This file holds the sweep kernels: each executes one grid point and
// returns its Record. The grids themselves are data — a manifest's sweep
// sections (manifests/*.json), or a sweep.Grid literal in a test or
// benchmark. The repro subcommands, the tests and the hand-run Go
// benchmarks all consume the Records these kernels produce (tables, -json,
// rec.Metric); there is no second projection.

// --- receive-datapath kernel -----------------------------------------------------

// rxConfig maps a sweep point onto the microbenchmark configuration. The
// Transport axis (one of RxTransports) selects both the verbs transport
// and the processor.
func rxConfig(s sweep.Spec) (RxBenchConfig, error) {
	cfg := RxBenchConfig{
		Workers: s.Threads, ChunkBytes: s.ChunkSize, TotalBytes: s.MsgBytes, Seed: s.Seed,
	}
	switch s.Transport {
	case "ud":
		cfg.Transport = verbs.UD
	case "uc":
		cfg.Transport = verbs.UC
	case "cpu-ud":
		cfg.Transport, cfg.OnCPU = verbs.UD, true
	case "cpu-rc":
		cfg.Transport, cfg.OnCPU = verbs.UC, true
	default:
		return cfg, fmt.Errorf("harness: unknown transport %q", s.Transport)
	}
	if cfg.Workers <= 0 || cfg.ChunkBytes <= 0 || cfg.TotalBytes <= 0 {
		return cfg, fmt.Errorf("harness: non-positive threads/chunk/bytes in %s", s)
	}
	return cfg, nil
}

// RxKernel returns the sweep kernel for the receive-datapath
// microbenchmark (Figures 5, 13–15 and Table I).
func RxKernel(tc telemetry.Config) sweep.Func {
	return func(s sweep.Spec) (sweep.Record, error) {
		cfg, err := rxConfig(s)
		if err != nil {
			return sweep.Record{}, err
		}
		r := RunRxBench(cfg)
		rec := sweep.Record{Spec: s, Metrics: map[string]float64{
			"gibps":      r.GiBps,
			"gbps":       r.Gbps,
			"chunk_rate": r.ChunkRate,
			"link_share": r.LinkShare,
			"link_gbps":  r.LinkGbps,
			"ipc":        r.IPC,
			"instr_cqe":  float64(r.Profile.IssueCycles),
			"cycles_cqe": float64(r.Profile.LatencyCycles),
		}}
		// The microbenchmark's engine is out of scope here; export the
		// counter snapshot its result carries.
		reg := newRegistry(tc)
		engineCounts(&rec, reg, r.Events, r.EventsScheduled)
		rec.Telemetry = reg.Snapshot()
		return rec, nil
	}
}

// --- collective kernel -----------------------------------------------------------

// CollKernel returns the sweep kernel for at-scale collectives on the
// 188-node testbed model (Figures 10 and 11): it instantiates the point's
// algorithm through the registry, runs one operation, and reports the
// unified Result (with the per-rank critical-path extension where the
// protocol provides it). The optional ChunkSize axis tunes the P2P
// baselines.
func CollKernel(tc telemetry.Config) sweep.Func {
	return func(s sweep.Spec) (sweep.Record, error) {
		pt, err := buildColl(tc, s, 0)
		if err != nil {
			return sweep.Record{}, err
		}
		s = pt.spec
		pt.sampler.Arm()
		res, err := pt.alg.Run(pt.op(s))
		if err != nil {
			return sweep.Record{}, err
		}
		rec := sweep.Record{Spec: s, Result: res, Metrics: map[string]float64{
			"gibps":       res.AlgBandwidth() / (1 << 30),
			"duration_us": res.Duration().Micros(),
		}}
		rec.Telemetry = pt.snapshot(&rec)
		if len(res.PerRank) > 0 {
			var bar, mc, fin, tot []float64
			for _, rs := range res.PerRank {
				total := float64(rs.Total)
				if total == 0 {
					continue
				}
				bar = append(bar, float64(rs.BarrierTime)/total)
				mc = append(mc, float64(rs.McastTime)/total)
				fin = append(fin, float64(rs.FinalTime)/total)
				tot = append(tot, total)
			}
			rec.Metrics["barrier_frac"] = stats.Summarize(bar).Median
			rec.Metrics["mcast_frac"] = stats.Summarize(mc).Median
			rec.Metrics["final_frac"] = stats.Summarize(fin).Median
			rec.Metrics["total_ns"] = stats.Summarize(tot).Median
		}
		return rec, nil
	}
}

// RxTransports names the datapaths of the receive-datapath kernels:
// "ud"/"uc" run on the DPA, "cpu-ud"/"cpu-rc" on the host-CPU model.
var RxTransports = []string{"ud", "uc", "cpu-ud", "cpu-rc"}

// Tbit16Target is the chunk processing rate equivalent to a 1.6 Tbit/s
// link with 4 KiB MTU packets (§VII).
const Tbit16Target = 1.6e12 / 8 / 4096 // chunks/second

// ChunkRateKernel scales the receive volume with the thread count (256 KiB
// per thread, keeping per-thread work meaningful while bounding event
// counts) and rebases link_share on the 1.6 Tbit/s chunk-rate target. It
// reads no MsgBytes axis.
func ChunkRateKernel(tc telemetry.Config) sweep.Func {
	rx := RxKernel(tc)
	return func(s sweep.Spec) (sweep.Record, error) {
		s.MsgBytes = 256 * 1024 * s.Threads
		rec, err := rx(s)
		if err != nil {
			return rec, err
		}
		rec.Metrics["link_share"] = rec.Metrics["chunk_rate"] / Tbit16Target
		return rec, nil
	}
}

// TrafficKernel measures switch-port counter totals for one algorithm: one
// warmup operation, counter reset, then 10 measured iterations on the same
// warm instance (the paper's counter methodology). AnnotateSavings relates
// the section's records afterwards.
func TrafficKernel(tc telemetry.Config) sweep.Func {
	return func(s sweep.Spec) (sweep.Record, error) {
		pt, err := buildColl(tc, s, 0)
		if err != nil {
			return sweep.Record{}, err
		}
		s = pt.spec
		if _, err := pt.alg.Run(pt.op(s)); err != nil {
			return sweep.Record{}, fmt.Errorf("warmup: %w", err)
		}
		// Counters (including per-channel telemetry stats) reset after
		// warmup, matching the paper's methodology: the exported fabric
		// metrics cover only the measured iterations.
		pt.f.ResetCounters()
		for i := 0; i < 10; i++ {
			pt.sampler.Arm()
			if _, err := pt.alg.Run(pt.op(s)); err != nil {
				return sweep.Record{}, fmt.Errorf("iter %d: %w", i, err)
			}
		}
		rec := sweep.Record{Spec: s, Metrics: map[string]float64{
			"switch_bytes": float64(pt.f.SwitchPortBytes()),
		}}
		rec.Telemetry = pt.snapshot(nil)
		return rec, nil
	}
}

// AnnotateSavings adds the cross-cell "savings_vs_p2p" metric (P2P switch
// bytes / multicast switch bytes for the same operation at the same node
// count and message size) onto every TrafficKernel record.
func AnnotateSavings(recs []sweep.Record) {
	at := func(s sweep.Spec, algo string) sweep.Spec {
		return sweep.Spec{Algorithm: algo, Nodes: s.Nodes, MsgBytes: s.MsgBytes}
	}
	switchBytes := map[sweep.Spec]float64{}
	for _, r := range recs {
		switchBytes[at(r.Spec, r.Spec.Algorithm)] = r.Metric("switch_bytes")
	}
	p2pFor := map[string]string{
		"mcast-broadcast": "knomial-broadcast",
		"mcast-allgather": "ring-allgather",
	}
	for i := range recs {
		if p2p, ok := p2pFor[recs[i].Spec.Algorithm]; ok {
			recs[i].Metrics["savings_vs_p2p"] = switchBytes[at(recs[i].Spec, p2p)] / recs[i].Metric("switch_bytes")
		} else {
			recs[i].Metrics["savings_vs_p2p"] = 1
		}
	}
}

// PairAlgorithms names the two concurrent-{Allgather, Reduce-Scatter}
// configurations PairKernel runs at each scale: "ring-pair" (ring AG +
// ring RS sharing NICs) and "inc-pair" (multicast AG + in-network RS).
var PairAlgorithms = []string{"ring-pair", "inc-pair"}

// PairKernel runs an Allgather and a Reduce-Scatter concurrently on one
// fresh star system (full-bandwidth, as Appendix B assumes) as a two-phase
// workload DAG — two single-op streams with no dependency edge, so both
// post at t=0 and contend for the shared NICs — and reports the span from
// first start to last finish, read from the unified Results.
func PairKernel(tc telemetry.Config) sweep.Func {
	return func(s sweep.Spec) (sweep.Record, error) {
		var ag, rs workload.Comm
		switch s.Algorithm {
		case "ring-pair":
			ag = workload.Comm{Name: "ag", Algorithm: "ring-allgather"}
			rs = workload.Comm{Name: "rs", Algorithm: "ring-reduce-scatter"}
		case "inc-pair":
			// All multicast chains run concurrently: with the send path
			// otherwise consumed by the Reduce-Scatter stream, spreading each
			// root's injection over the whole operation (multicast parallelism,
			// §IV-A) is what lets the Allgather live on the receive path alone.
			ag = workload.Comm{Name: "ag", Algorithm: "mcast-allgather", Options: registry.Options{
				Core: core.Config{Chains: s.Nodes, Subgroups: 4},
			}}
			rs = workload.Comm{Name: "rs", Algorithm: "inc-reduce-scatter"}
		default:
			return sweep.Record{}, fmt.Errorf("harness: unknown pair %q", s.Algorithm)
		}
		pt := buildStar(tc, s, s.Nodes)
		pt.sampler.Arm()
		rep, err := workload.Run(pt.cl, workload.Workload{Name: s.Algorithm, Jobs: []workload.Job{{
			Name:  "pair",
			Comms: []workload.Comm{ag, rs},
			Phases: []workload.Phase{
				{Name: "ag", Comm: "ag", Bytes: s.MsgBytes},
				{Name: "rs", Comm: "rs", Bytes: s.MsgBytes},
			},
		}}})
		if err != nil {
			return sweep.Record{}, fmt.Errorf("harness: {%s} at P=%d: %w", s.Algorithm, s.Nodes, err)
		}
		var agR, rsR *collective.Result
		for _, span := range rep.Job("pair").Spans {
			switch span.Phase {
			case "ag":
				agR = span.Result
			case "rs":
				rsR = span.Result
			}
		}
		span := max(agR.End, rsR.End) - min(agR.Start, rsR.Start)
		rec := sweep.Record{Spec: s, Metrics: map[string]float64{
			"span_ns":       float64(span),
			"model_speedup": model.SpeedupINC(s.Nodes),
		}}
		rec.Telemetry = pt.snapshot(nil)
		return rec, nil
	}
}

// --- OSU-style kernel ------------------------------------------------------------

// OSUWarmup is the OSU-style loop's warm-up iteration count, run before
// the measured iterations and excluded from the latency distribution.
const OSUWarmup = 2

// OSUConfig parameterizes the OSU-style measurement loop behind the osu
// manifest kind: OSUWarmup iterations excluded, per-size medians with
// nonparametric confidence intervals (Hoefler–Belli guidelines).
type OSUConfig struct {
	Iters int
	// JitterUS adds seeded per-delivery network noise in microseconds,
	// enabling run-to-run variability within a point.
	JitterUS int
}

// OSUKernel returns the sweep kernel that measures one (algorithm, nodes,
// size) point on the testbed model: the communicator persists across the
// point's iterations (warm queue pairs and buffers), and the Record carries
// the last iteration's unified Result plus the latency distribution.
func OSUKernel(tc telemetry.Config, cfg OSUConfig) sweep.Func {
	return func(s sweep.Spec) (sweep.Record, error) {
		if cfg.Iters <= 0 {
			return sweep.Record{}, fmt.Errorf("harness: iters must be positive")
		}
		pt, err := buildColl(tc, s, cfg.JitterUS)
		if err != nil {
			return sweep.Record{}, err
		}
		return osuRun(cfg, pt, pt.spec)
	}
}

// osuRun is the kernel's continuation: the warm-up/measure loop over the
// built point.
func osuRun(cfg OSUConfig, pt *point, s sweep.Spec) (sweep.Record, error) {
	op := pt.op(s)
	if !pt.alg.Supports(op) {
		return sweep.Record{}, fmt.Errorf("harness: %s does not support %s of %d bytes on %d nodes",
			s.Algorithm, op.Kind, op.Bytes, s.Nodes)
	}
	var lat []float64
	var last *collective.Result
	for i := 0; i < OSUWarmup+cfg.Iters; i++ {
		// The sampler self-terminates when the queue drains between
		// iterations; re-arm it so each iteration is sampled.
		pt.sampler.Arm()
		res, err := pt.alg.Run(op)
		if err != nil {
			return sweep.Record{}, fmt.Errorf("iter %d: %w", i, err)
		}
		if i >= OSUWarmup {
			lat = append(lat, res.Duration().Micros())
			last = res
		}
	}
	sum := stats.Summarize(lat)
	// Bandwidth numerator is the per-rank network receive payload, the
	// same semantic AlgBandwidth and Figure 11 use; a zero-time operation
	// (one rank has nothing to receive) reports 0, as AlgBandwidth does.
	var gibps float64
	if sum.Median > 0 {
		gibps = last.RecvPerRank() / (sum.Median / 1e6) / (1 << 30)
	}
	rec := sweep.Record{Spec: s, Result: last, Metrics: map[string]float64{
		"median_us":    sum.Median,
		"ci95_low_us":  sum.CILow,
		"ci95_high_us": sum.CIHigh,
		"min_us":       sum.Min,
		"max_us":       sum.Max,
		"gibps":        gibps,
	}}
	rec.Telemetry = pt.snapshot(&rec)
	return rec, nil
}
