package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func loadResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != 1 {
		return nil, fmt.Errorf("%s: schema %d, want 1", path, r.Schema)
	}
	return &r, nil
}

// runCompare judges result file b against baseline a and exits non-zero on
// disagreement. Simulated identity (out_sha256, sim_events, sim_scheduled,
// points, every *.events_per_* count) must match exactly; each end-to-end
// median may be worse than a's by at most a's bound; neither run may hold
// a failed operation. Per-layer timings are listed with their change and
// never scored. For the two-sets check of one commit, run it both ways.
func runCompare(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadResult(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := loadResult(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if !compareResults(a, b, stdout) {
		fmt.Fprintln(stdout, "compare: DISAGREE")
		return 1
	}
	fmt.Fprintln(stdout, "compare: agree")
	return 0
}

// sharedKeys returns the keys both maps hold, sorted.
func sharedKeys[V any](a, b map[string]*V) []string {
	var keys []string
	for k := range a {
		if b[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// worseBy is how much worse b is than a as a share of a, in the metric's
// own direction: positive is a regression.
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func compareResults(a, b *result, w io.Writer) bool {
	ok := true
	bad := func(format string, args ...any) {
		ok = false
		fmt.Fprintf(w, "  DISAGREE "+format+"\n", args...)
	}
	if a.Inputs.Seed != b.Inputs.Seed {
		bad("seed %d vs %d: different inputs, nothing below is comparable", a.Inputs.Seed, b.Inputs.Seed)
	}
	if !a.Canary.OK || !b.Canary.OK {
		bad("canary failed (a %s, b %s)", okWord(a.Canary.OK), okWord(b.Canary.OK))
	}
	names := sharedKeys(a.Workloads, b.Workloads)
	if len(names) == 0 {
		bad("the two files share no workload")
	}
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		fmt.Fprintf(w, "== %s\n", name)
		if wa.OutSHA256 != wb.OutSHA256 || wa.SimEvents != wb.SimEvents ||
			wa.SimScheduled != wb.SimScheduled || wa.Points != wb.Points {
			bad("simulated result differs: out_sha256 %.12s… vs %.12s…, sim_events %d vs %d, sim_scheduled %d vs %d, points %d vs %d",
				wa.OutSHA256, wb.OutSHA256, wa.SimEvents, wb.SimEvents, wa.SimScheduled, wb.SimScheduled, wa.Points, wb.Points)
		} else {
			fmt.Fprintf(w, "  identical  out_sha256, sim_events %d, sim_scheduled %d, points %d\n", wa.SimEvents, wa.SimScheduled, wa.Points)
		}
		if wa.Failed != 0 || wb.Failed != 0 {
			bad("failed operations: a %d of %d, b %d of %d", wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		}
		for _, def := range endToEndMetrics {
			sa, sb := wa.EndToEnd[def.Name], wb.EndToEnd[def.Name]
			if sa == nil || sb == nil || sa.N == 0 || sb.N == 0 {
				continue
			}
			d := worseBy(sa.Better, sa.Median, sb.Median)
			line := fmt.Sprintf("%-18s %12.6g -> %-12.6g %s  %+.2f%% worse (bound %.0f%%, n %d/%d)",
				def.Name, sa.Median, sb.Median, sa.Unit, d*100, sa.Bound*100, sa.N, sb.N)
			if d > sa.Bound {
				bad("%s", line)
			} else {
				fmt.Fprintf(w, "  ok        %s\n", line)
			}
		}
		comparePerLayer(w, wa.PerLayer, wb.PerLayer, bad)
	}
	if len(a.PerLayer) > 0 && len(b.PerLayer) > 0 {
		fmt.Fprintln(w, "== layers")
		comparePerLayer(w, a.PerLayer, b.PerLayer, bad)
	}
	return ok
}

// comparePerLayer lists the per-layer metrics both files hold. Event counts
// are deterministic and must match; everything else is informational.
func comparePerLayer(w io.Writer, a, b map[string]*value, bad func(string, ...any)) {
	for _, name := range sharedKeys(a, b) {
		va, vb := a[name], b[name]
		if strings.HasSuffix(name, ".events_per_op") || strings.HasSuffix(name, ".events_per_step") {
			if va.Value != vb.Value {
				bad("%s %.0f vs %.0f: event counts must match exactly", name, va.Value, vb.Value)
			} else {
				fmt.Fprintf(w, "  identical  %s %.0f\n", name, va.Value)
			}
			continue
		}
		fmt.Fprintf(w, "  unscored  %-32s %12.6g -> %-12.6g %s  %+.2f%% worse\n",
			name, va.Value, vb.Value, va.Unit, worseBy(va.Better, va.Value, vb.Value)*100)
	}
}
