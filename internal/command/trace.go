package command

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/telemetry"
)

// runTraceCmd implements `repro trace [-top N] <metrics.json>`: load a
// canonical telemetry document and summarize it — per-subsystem totals
// plus the busiest fabric channels by serialization busy-time. The
// summary is a pure function of the document, so it is as deterministic
// as the document itself.
func runTraceCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro trace", flag.ContinueOnError)
	top := fs.Int("top", 5, "busiest channels to list (> 0)")
	if code := parseFlags(fs, args, stderr); code >= 0 {
		return code
	}
	if fs.NArg() != 1 {
		return fail(stderr, 2, "usage: repro trace [-top N] <metrics.json>")
	}
	if err := Validate("trace", Positive("top", *top)); err != nil {
		return fail(stderr, 2, "%v", err)
	}
	doc, err := telemetry.LoadDocument(fs.Arg(0))
	if err != nil {
		return fail(stderr, 1, "trace: %v", err)
	}
	summarizeDocument(stdout, doc, *top)
	return 0
}

// subsystemTotals aggregates one subsystem's metrics across every point.
type subsystemTotals struct {
	metrics      int
	counterTotal uint64
	gaugeSamples int
	observations uint64
}

// summarizeDocument renders the per-subsystem rollup and the top-N
// busiest channels of a metrics document.
func summarizeDocument(w io.Writer, doc telemetry.Document, top int) {
	totals := map[string]*subsystemTotals{}
	busy := map[string]uint64{}
	const busyPrefix = "fabric/channel_busy_ns{"
	nMetrics := 0
	for _, p := range doc.Points {
		for _, m := range p.Metrics {
			nMetrics++
			sub := m.Key
			if i := strings.IndexByte(sub, '/'); i >= 0 {
				sub = sub[:i]
			}
			t := totals[sub]
			if t == nil {
				t = &subsystemTotals{}
				totals[sub] = t
			}
			t.metrics++
			switch m.Type {
			case "counter":
				t.counterTotal += m.Value
			case "gauge":
				t.gaugeSamples += len(m.Samples)
			case "histogram":
				t.observations += m.Count
			}
			if strings.HasPrefix(m.Key, busyPrefix) && strings.HasSuffix(m.Key, "}") {
				label := m.Key[len(busyPrefix) : len(m.Key)-1]
				busy[label] += m.Value
			}
		}
	}
	fmt.Fprintf(w, "%s: %d points, %d metrics\n", doc.Name, len(doc.Points), nMetrics)
	subs := make([]string, 0, len(totals))
	for s := range totals {
		subs = append(subs, s)
	}
	sort.Strings(subs)
	for _, s := range subs {
		t := totals[s]
		fmt.Fprintf(w, "  %-10s %4d metrics  counter-total %-12d gauge-samples %-6d histogram-obs %d\n",
			s, t.metrics, t.counterTotal, t.gaugeSamples, t.observations)
	}
	if len(busy) == 0 {
		return
	}
	type chBusy struct {
		label string
		ns    uint64
	}
	chans := make([]chBusy, 0, len(busy))
	for l, ns := range busy {
		chans = append(chans, chBusy{l, ns})
	}
	sort.Slice(chans, func(i, j int) bool {
		if chans[i].ns != chans[j].ns {
			return chans[i].ns > chans[j].ns
		}
		return chans[i].label < chans[j].label
	})
	if top > len(chans) {
		top = len(chans)
	}
	fmt.Fprintf(w, "top %d busiest channels (serialization busy-time):\n", top)
	for _, c := range chans[:top] {
		fmt.Fprintf(w, "  %-28s %.3f ms\n", c.label, float64(c.ns)/1e6)
	}
}
