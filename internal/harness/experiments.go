package harness

import (
	"strings"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// The typed per-figure views below project the sweep Records (sweeps.go)
// into the shapes the tests and benchmarks assert on. Every experiment
// declares a Grid and dispatches through the sweep engine's worker pool, so
// independent simulations parallelize across OS threads.

// The views take no Env: they run on the zero Env (serial engine,
// telemetry off), like every caller that only wants the numbers.

// --- Figure 5: single CPU core vs single DPA core ------------------------------

// Fig5Point compares the two datapaths at one message size.
type Fig5Point struct {
	MsgBytes int
	CPUGbps  float64 // 1-thread host CPU UD datapath (UCX-style)
	DPAGbps  float64 // 1-core (16-thread) DPA UD datapath
	LinkGbps float64
}

// Fig5SingleCore sweeps message sizes on a 200 Gbit/s back-to-back link.
func Fig5SingleCore(sizes []int) []Fig5Point {
	recs, err := sweep.Run(Fig5Specs(sizes), 0, RxKernel(Env{}), false)
	if err != nil {
		panic(err) // unreachable for positive sizes, as with RunRxBench
	}
	out := make([]Fig5Point, len(sizes))
	for i := range sizes {
		cpu, dpa := recs[i], recs[len(sizes)+i]
		out[i] = Fig5Point{
			MsgBytes: sizes[i],
			CPUGbps:  cpu.Metric("gbps"),
			DPAGbps:  dpa.Metric("gbps"),
			LinkGbps: cpu.Metric("link_gbps"),
		}
	}
	return out
}

// --- Table I: single-thread DPA metrics ----------------------------------------

// Table1Row reproduces one row of Table I.
type Table1Row struct {
	Datapath        string
	ThroughputGiBps float64
	InstructionsCQE int
	CyclesCQE       int
	IPC             float64
}

// Table1SingleThread measures both datapaths with one DPA thread, 8 MiB
// buffer, 4 KiB chunks.
func Table1SingleThread() []Table1Row {
	recs, err := sweep.RunGrid(Table1Grid(), 0, RxKernel(Env{}))
	if err != nil {
		panic(err) // fixed grid, cannot fail
	}
	rows := make([]Table1Row, len(recs))
	for i, r := range recs {
		rows[i] = Table1Row{
			Datapath:        strings.ToUpper(r.Spec.Transport),
			ThroughputGiBps: r.Metric("gibps"),
			InstructionsCQE: int(r.Metric("instr_cqe")),
			CyclesCQE:       int(r.Metric("cycles_cqe")),
			IPC:             r.Metric("ipc"),
		}
	}
	return rows
}

// --- Figures 13/14/15/16: DPA thread scaling -----------------------------------

// ScalingPoint is one (transport, threads) measurement.
type ScalingPoint struct {
	Transport  string
	Threads    int
	ChunkBytes int
	GiBps      float64
	Gbps       float64
	ChunkRate  float64
	LinkShare  float64
}

func scalingPoint(r sweep.Record) ScalingPoint {
	return ScalingPoint{
		Transport:  strings.ToUpper(r.Spec.Transport),
		Threads:    r.Spec.Threads,
		ChunkBytes: r.Spec.ChunkSize,
		GiBps:      r.Metric("gibps"),
		Gbps:       r.Metric("gbps"),
		ChunkRate:  r.Metric("chunk_rate"),
		LinkShare:  r.Metric("link_share"),
	}
}

// Fig13ThreadScaling sweeps DPA worker threads for the UD and UC datapaths
// (8 MiB buffer, 4 KiB chunks) plus the single-thread CPU baseline, as in
// Figure 13.
func Fig13ThreadScaling(threadCounts []int) ([]ScalingPoint, ScalingPoint) {
	recs, err := sweep.Run(Fig13Specs(threadCounts), 0, RxKernel(Env{}), false)
	if err != nil {
		panic(err) // fixed axes, cannot fail
	}
	pts := make([]ScalingPoint, len(recs)-1)
	for i, r := range recs[:len(recs)-1] {
		pts[i] = scalingPoint(r)
	}
	return pts, scalingPoint(recs[len(recs)-1])
}

// Fig15ChunkSize sweeps the UC chunk size for several thread counts (8 MiB
// buffer).
func Fig15ChunkSize(chunkSizes, threadCounts []int) []ScalingPoint {
	recs, err := sweep.RunGrid(Fig15Grid(chunkSizes, threadCounts), 0, RxKernel(Env{}))
	if err != nil {
		panic(err)
	}
	pts := make([]ScalingPoint, len(recs))
	for i, r := range recs {
		pts[i] = scalingPoint(r)
	}
	return pts
}

// Tbit16Target is the chunk processing rate equivalent to a 1.6 Tbit/s
// link with 4 KiB MTU packets: the horizontal target line of Figure 16.
const Tbit16Target = 1.6e12 / 8 / 4096 // chunks/second

// Fig16TbitScaling sweeps thread counts with 64-byte chunks, matching the
// arrival rate of a future 1.6 Tbit/s link (§VII). LinkShare is relative to
// the Tbit16Target chunk rate.
func Fig16TbitScaling(threadCounts []int) []ScalingPoint {
	recs, err := sweep.RunGrid(Fig16Grid(threadCounts), 0, Fig16Kernel(Env{}))
	if err != nil {
		panic(err)
	}
	pts := make([]ScalingPoint, len(recs))
	for i, r := range recs {
		pts[i] = scalingPoint(r)
	}
	return pts
}

// --- Figure 10: protocol critical-path breakdown --------------------------------

// BreakdownPoint aggregates the phase breakdown across ranks for one
// (nodes, size) cell of Figure 10.
type BreakdownPoint struct {
	Nodes       int
	MsgBytes    int
	BarrierFrac float64
	McastFrac   float64
	FinalFrac   float64
	Total       sim.Time
}

// Fig10Breakdown runs the multicast Allgather at several scales and
// message sizes on the testbed model and reports median phase fractions,
// read from the unified Result's per-rank extension.
func Fig10Breakdown(nodeCounts, sizes []int) ([]BreakdownPoint, error) {
	recs, err := sweep.RunGrid(Fig10Grid(nodeCounts, sizes), 0, CollKernel(Env{}))
	if err != nil {
		return nil, err
	}
	out := make([]BreakdownPoint, len(recs))
	for i, r := range recs {
		out[i] = BreakdownPoint{
			Nodes:       r.Spec.Nodes,
			MsgBytes:    r.Spec.MsgBytes,
			BarrierFrac: r.Metric("barrier_frac"),
			McastFrac:   r.Metric("mcast_frac"),
			FinalFrac:   r.Metric("final_frac"),
			Total:       sim.Time(r.Metric("total_ns")),
		}
	}
	return out, nil
}

// --- Figure 11: throughput at scale ----------------------------------------------

// Fig11Point is one (operation, algorithm, size) measurement.
type Fig11Point struct {
	Op       string // "broadcast" or "allgather"
	Algo     string
	MsgBytes int
	GiBps    float64 // per-rank receive throughput
}

// Fig11Throughput measures the multicast collectives against their P2P
// baselines at the given node count (paper: 188) over a size sweep,
// dispatching every algorithm through the unified registry. The
// independent simulations run in parallel across OS threads.
func Fig11Throughput(nodes int, sizes []int) ([]Fig11Point, error) {
	recs, err := sweep.Run(Fig11Specs(nodes, sizes), 0, CollKernel(Env{}), false)
	if err != nil {
		return nil, err
	}
	out := make([]Fig11Point, len(recs))
	for i, r := range recs {
		out[i] = Fig11Point{
			Op:       r.Spec.Op,
			Algo:     r.Spec.Algorithm,
			MsgBytes: r.Spec.MsgBytes,
			GiBps:    r.Metric("gibps"),
		}
	}
	return out, nil
}

// --- Figure 12: switch traffic savings --------------------------------------------

// Fig12Row records switch-port counter totals for one algorithm.
type Fig12Row struct {
	Op          string
	Algo        string
	SwitchBytes uint64
	// Savings is P2P bytes / multicast bytes for the same operation.
	Savings float64
}

// Fig12Traffic runs broadcast and allgather with multicast and P2P
// algorithms on the testbed model, reading the switch-port counters as the
// paper does (64 KiB messages, iters iterations). Each algorithm runs on
// its own fresh fabric through the registry; the instance's persistent
// transport state carries from warmup into the measured iterations.
func Fig12Traffic(nodes, msgBytes, iters int) ([]Fig12Row, error) {
	recs, err := sweep.Run(Fig12Specs(nodes, msgBytes), 0, Fig12Kernel(Env{}, iters), false)
	if err != nil {
		return nil, err
	}
	AnnotateSavings(recs)
	out := make([]Fig12Row, len(recs))
	for i, r := range recs {
		family, _, _ := strings.Cut(r.Spec.Algorithm, "-")
		out[i] = Fig12Row{
			Op:          r.Spec.Op,
			Algo:        family,
			SwitchBytes: uint64(r.Metric("switch_bytes")),
			Savings:     r.Metric("savings_vs_p2p"),
		}
	}
	return out, nil
}

// --- Appendix B: concurrent {AG, RS} ----------------------------------------------

// AppBPoint compares the two concurrent-collective configurations at one
// scale.
type AppBPoint struct {
	P        int
	RingPair sim.Time // {AG_ring, RS_ring} completion
	IncPair  sim.Time // {AG_mcast, RS_inc} completion
	Speedup  float64
	Model    float64 // 2 - 2/P
}

// AppBConcurrent measures both configurations with per-rank buffer n on a
// star fabric (full-bandwidth, as Appendix B assumes). Both pairs run
// concurrently through the registry's non-blocking Starter surface on a
// shared cluster, contending for the same NICs.
func AppBConcurrent(ps []int, n int) ([]AppBPoint, error) {
	recs, err := sweep.Run(AppBSpecs(ps, n), 0, AppBKernel(Env{}), false)
	if err != nil {
		return nil, err
	}
	out := make([]AppBPoint, len(ps))
	for i, p := range ps {
		ring := recs[i].Metric("span_ns")
		inc := recs[len(ps)+i].Metric("span_ns")
		out[i] = AppBPoint{
			P:        p,
			RingPair: sim.Time(ring),
			IncPair:  sim.Time(inc),
			Speedup:  ring / inc,
			Model:    model.SpeedupINC(p),
		}
	}
	return out, nil
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

func minTime(a, b sim.Time) sim.Time {
	if a < b {
		return a
	}
	return b
}
