package sweep

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"repro/internal/collective"
	"repro/internal/telemetry"
)

// Record is the structured result of one sweep point: the spec that
// produced it, the scalar metrics the driver reports (keyed by metric
// name), and — for collective runs — the full unified Result with its
// per-rank critical-path extension.
type Record struct {
	Spec Spec `json:"spec"`
	// Metrics holds the point's scalar results. encoding/json marshals
	// maps with sorted keys, so the serialized form is deterministic.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Result carries the unified collective outcome (with RankStats) when
	// the point ran a registry algorithm; nil for datapath microbenchmarks.
	Result *collective.Result `json:"result,omitempty"`
	// Workload and OverlapFrac are optional application-level metadata,
	// filled by kernels that execute an internal/workload DAG: the preset
	// that ran and the fraction of communication hidden behind compute or
	// other communication. Zero values are omitted, so records from
	// non-workload sweeps serialize exactly as before the fields existed.
	Workload    string  `json:"workload,omitempty"`
	OverlapFrac float64 `json:"overlap_frac,omitempty"`
	// Telemetry is the point's metric snapshot when telemetry is enabled.
	// It is excluded from the BENCH_*.json encoding and surfaces through
	// the separately written canonical metrics.json instead. Turning
	// telemetry on leaves every result and duration unchanged, but not the
	// bytes: the sampler's events count in sim_events, and an OSU record's
	// Start/End shift to the sampler's ticks.
	Telemetry *telemetry.Snapshot `json:"-"`
}

// Metric returns the named metric, or 0 when absent.
func (r Record) Metric(name string) float64 { return r.Metrics[name] }

// Report is the on-disk document: a named list of records, the unit CI
// uploads as BENCH_*.json.
type Report struct {
	Name    string   `json:"name"`
	Records []Record `json:"records"`
}

// metricColumns returns the union of metric names across records, sorted.
func metricColumns(recs []Record) []string {
	seen := map[string]bool{}
	for _, r := range recs {
		for k := range r.Metrics {
			seen[k] = true
		}
	}
	cols := make([]string, 0, len(seen))
	for k := range seen {
		cols = append(cols, k)
	}
	sort.Strings(cols)
	return cols
}

// specColumn describes one spec axis for tabular output.
type specColumn struct {
	name string
	get  func(Spec) string
	used func(Spec) bool
}

var specColumns = []specColumn{
	{"algorithm", func(s Spec) string { return s.Algorithm }, func(s Spec) bool { return s.Algorithm != "" }},
	{"workload", func(s Spec) string { return s.Workload }, func(s Spec) bool { return s.Workload != "" }},
	{"op", func(s Spec) string { return s.Op }, func(s Spec) bool { return s.Op != "" }},
	{"transport", func(s Spec) string { return s.Transport }, func(s Spec) bool { return s.Transport != "" }},
	{"nodes", func(s Spec) string { return fmt.Sprint(s.Nodes) }, func(s Spec) bool { return s.Nodes != 0 }},
	{"msg_bytes", func(s Spec) string { return fmt.Sprint(s.MsgBytes) }, func(s Spec) bool { return s.MsgBytes != 0 }},
	{"threads", func(s Spec) string { return fmt.Sprint(s.Threads) }, func(s Spec) bool { return s.Threads != 0 }},
	{"chunk_size", func(s Spec) string { return fmt.Sprint(s.ChunkSize) }, func(s Spec) bool { return s.ChunkSize != 0 }},
	{"scenario", func(s Spec) string { return s.Scenario }, func(s Spec) bool { return s.Scenario != "" }},
}

// activeSpecColumns returns the spec axes any record actually uses.
func activeSpecColumns(recs []Record) []specColumn {
	var out []specColumn
	for _, c := range specColumns {
		for _, r := range recs {
			if c.used(r.Spec) {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// WriteTable renders the records as an aligned human-readable table: the
// spec axes the sweep varies followed by every metric column. It is the
// single table printer shared by all cmd binaries.
func WriteTable(w io.Writer, recs []Record) error {
	if len(recs) == 0 {
		_, err := fmt.Fprintln(w, "(no records)")
		return err
	}
	specs := activeSpecColumns(recs)
	metrics := metricColumns(recs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for i, c := range specs {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, c.name)
	}
	for _, m := range metrics {
		fmt.Fprint(tw, "\t", m)
	}
	fmt.Fprintln(tw)
	for _, r := range recs {
		for i, c := range specs {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, c.get(r.Spec))
		}
		for _, m := range metrics {
			if v, ok := r.Metrics[m]; ok {
				fmt.Fprintf(tw, "\t%.6g", v)
			} else {
				fmt.Fprint(tw, "\t-")
			}
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}
