package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one scored end-to-end metric. Bound is the share of the
// baseline's median by which the metric may get worse before -compare (and
// the PR driver, which reads the same numbers from BENCHMARK.json) calls
// it a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEndMetrics are what a user of the simulator sees, per workload.
// Failures are not a metric here: a rate that is normally exactly zero has
// no median to bound, so failed and attempted repetitions are reported as
// counts beside the metrics and any failure fails the run.
//
// The three timing bounds are as wide as the PR contract allows. On the
// 2-vCPU VM this ledger was defined on, ten runs of one commit spread
// (quartile distance over median) 12-31% on the timings, whatever the rep
// count or estimator: the host's speed moves by a third in spells of tens
// of seconds to minutes. A tighter claim needs the paired protocol of
// README.md, not a tighter bound here. The allocation ratios repeat to six
// digits and peak RSS to 3%.
var endToEndMetrics = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"events_per_sec", "1/s", "higher", 0.25},
	{"allocs_per_event", "count", "lower", 0.02},
	{"bytes_per_event", "B", "lower", 0.02},
	{"peak_rss_mb", "MiB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// layerDef names one unscored per-layer metric; the layer is the module
// name before the first dot.
type layerDef struct {
	Name   string
	Unit   string
	Better string
	// FullOnly metrics are measured only by the whole-ledger run and are
	// not part of BENCHMARK.json.
	FullOnly bool
}

// perLayerMetrics is the ledger's per-layer vocabulary; README.md says
// what each one measures and which end-to-end metric it should move.
var perLayerMetrics = []layerDef{
	// (a) traced run of the workload: self time per phase of `repro run`.
	{Name: "manifest.load_ms", Unit: "ms", Better: "lower"},
	{Name: "manifest.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "command.digest_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower"},
	{Name: "runtime.gc_cpu_frac", Unit: "fraction", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	// (b) facade mirror of each workload's representative point.
	{Name: "cluster.system_build_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.system_build_allocs", Unit: "count", Better: "lower"},
	{Name: "registry.new_mcast_ms", Unit: "ms", Better: "lower"},
	{Name: "registry.new_ring_ms", Unit: "ms", Better: "lower"},
	{Name: "core.op_wall_ms", Unit: "ms", Better: "lower"},
	{Name: "core.events_per_op", Unit: "count", Better: "lower"},
	{Name: "core.events_per_sec", Unit: "1/s", Better: "higher"},
	{Name: "core.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "coll.op_wall_ms", Unit: "ms", Better: "lower"},
	{Name: "coll.events_per_op", Unit: "count", Better: "lower"},
	{Name: "coll.events_per_sec", Unit: "1/s", Better: "higher"},
	{Name: "coll.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "workload.step_wall_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.events_per_step", Unit: "count", Better: "lower"},
	{Name: "workload.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "scenario.quiet_events_per_sec", Unit: "1/s", Better: "higher"},
	{Name: "scenario.lossy_events_per_sec", Unit: "1/s", Better: "higher"},
	{Name: "snap.capture_ms", Unit: "ms", Better: "lower"},
	{Name: "snap.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "snap.bytes", Unit: "B", Better: "lower"},
	{Name: "sim.snapshot_ms", Unit: "ms", Better: "lower"},
	// (c) layer drivers with no upper layer attached.
	{Name: "sim.churn_events_per_sec", Unit: "1/s", Better: "higher"},
	{Name: "sim.churn_allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "sim.far_heap_events_per_sec", Unit: "1/s", Better: "higher"},
	{Name: "sim.timer_rearm_per_sec", Unit: "1/s", Better: "higher"},
	{Name: "fabric.unicast_hops_per_sec", Unit: "1/s", Better: "higher"},
	{Name: "fabric.mcast_deliveries_per_sec", Unit: "1/s", Better: "higher"},
	{Name: "fabric.allocs_per_packet", Unit: "count", Better: "lower"},
	{Name: "verbs.ud_msgs_per_sec", Unit: "1/s", Better: "higher"},
	{Name: "verbs.rc_msgs_per_sec", Unit: "1/s", Better: "higher"},
	{Name: "verbs.allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "verbs.postrecv_ns", Unit: "ns", Better: "lower"},
	// (d) ratios and execution modes.
	{Name: "stack.core_over_sim", Unit: "ratio", Better: "higher"},
	{Name: "stack.coll_over_sim", Unit: "ratio", Better: "higher"},
	{Name: "sweep.pool_speedup_w2", Unit: "ratio", Better: "higher"},
	{Name: "telemetry.overhead_frac", Unit: "fraction", Better: "lower"},
	{Name: "bench.canary_s", Unit: "s", Better: "lower"},
	{Name: "sim.shards2_speedup", Unit: "ratio", Better: "higher", FullOnly: true},
}

// layerValue is the per-layer metric name with its measured value; the
// name must be in perLayerMetrics.
func layerValue(name string, v float64) *value {
	for _, def := range perLayerMetrics {
		if def.Name == name {
			return &value{Unit: def.Unit, Better: def.Better, Value: v}
		}
	}
	panic("bench: per-layer metric " + name + " is not in perLayerMetrics")
}

// scored is one end-to-end metric of one workload: the median over its
// samples with quartiles, minimum and sample count, and — once n > 20 — the
// highest percentile on the metric's worse side that still has ten samples
// beyond it. With fewer samples no percentile past the median has.
type scored struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	N      int     `json:"n"`
	// TailPct is 0 when no tail percentile is supported by the sample.
	TailPct int     `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

// value is one unscored per-layer metric.
type value struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Value  float64 `json:"value"`
}

// workloadResult is everything the ledger records about one workload.
type workloadResult struct {
	// Identity of the simulated result: a host-speed change must leave all
	// four identical between parent and change.
	Points       int    `json:"points"`
	SimEvents    uint64 `json:"sim_events"`
	SimScheduled uint64 `json:"sim_scheduled"`
	OutSHA256    string `json:"out_sha256"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	EndToEnd map[string]*scored `json:"end_to_end"`
	PerLayer map[string]*value  `json:"per_layer"`
}

type canaryResult struct {
	OK      bool    `json:"ok"`
	Seconds float64 `json:"seconds"`
}

// result is the machine-readable file a run writes and -compare reads.
type result struct {
	Schema      int                        `json:"schema"`
	Inputs      inputs                     `json:"inputs"`
	Canary      canaryResult               `json:"canary"`
	Workloads   map[string]*workloadResult `json:"workloads"`
	PerLayer    map[string]*value          `json:"per_layer,omitempty"`
	LayersError string                     `json:"layers_error,omitempty"`
}

// fail records one failed operation of a workload.
func (wr *workloadResult) fail(format string, args ...any) {
	wr.Failed++
	wr.Failures = append(wr.Failures, fmt.Sprintf(format, args...))
}

// summarize reduces samples to the scored form of def.
func summarize(def metricDef, samples []float64) *scored {
	s := &scored{Unit: def.Unit, Better: def.Better, Bound: def.Bound, N: len(samples)}
	if len(samples) == 0 {
		return s
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	s.Min = sorted[0]
	s.Median = quantile(sorted, 0.5)
	s.Q1, s.Q3 = quantile(sorted, 0.25), quantile(sorted, 0.75)
	if n := len(sorted); n > 20 {
		s.TailPct = 100 * (n - 10) / n
		p := float64(s.TailPct) / 100
		if def.Better == "higher" {
			p = 1 - p
		}
		s.Tail = quantile(sorted, p)
	}
	return s
}

// median of unsorted samples; 0 when empty.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return quantile(sorted, 0.5)
}

// quantile is the "exclusive" method of Python's statistics.quantiles —
// the one the PR driver applies to a set of runs — clamped to the sample
// range, on sorted input.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := p*float64(n+1) - 1
	lo := int(math.Floor(pos))
	switch {
	case lo < 0:
		return sorted[0]
	case lo >= n-1:
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func printEndToEnd(w io.Writer, name string, wr *workloadResult) {
	fmt.Fprintf(w, "== end-to-end %s: %d points, sim_events %d, sim_scheduled %d, out_sha256 %.12s…, reps %d attempted %d failed\n",
		name, wr.Points, wr.SimEvents, wr.SimScheduled, wr.OutSHA256, wr.Attempted, wr.Failed)
	fmt.Fprintln(w, "   (median [q1 .. q3] min, n samples; a worse-side percentile only where ten samples lie beyond it, so none at n <= 20)")
	for _, def := range endToEndMetrics {
		s := wr.EndToEnd[def.Name]
		if s == nil {
			continue
		}
		tail := ""
		if s.TailPct > 0 {
			tail = fmt.Sprintf(" p%d-worse %.6g", s.TailPct, s.Tail)
		}
		fmt.Fprintf(w, "  %-18s %14.6g %-5s [%.6g .. %.6g] min %.6g%s  n=%d  (%s is better, bound %.0f%%)\n",
			def.Name, s.Median, s.Unit, s.Q1, s.Q3, s.Min, tail, s.N, s.Better, s.Bound*100)
	}
}

func printPerLayer(w io.Writer, title string, set map[string]*value) {
	fmt.Fprintf(w, "== %s\n", title)
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := set[name]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", name, v.Value, v.Unit)
	}
}
