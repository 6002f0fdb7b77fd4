package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/manifest"
	"repro/internal/sweep"
)

// rep is one repetition of a workload: one full `repro run` of its
// generated manifest, with the host cost measured around it and the
// written report checked after it.
type rep struct {
	WallS    float64 `json:"wall_s"`
	Mallocs  uint64  `json:"mallocs"`
	Bytes    uint64  `json:"bytes"`
	GCCycles uint32  `json:"gc_cycles"`
	// GCCPUS and BusyCPUS are the process's CPU seconds in the collector
	// and in total (idle excluded) during the rep.
	GCCPUS   float64 `json:"gc_cpu_s"`
	BusyCPUS float64 `json:"busy_cpu_s"`

	Points       int    `json:"points"`
	SimEvents    uint64 `json:"sim_events"`
	SimScheduled uint64 `json:"sim_scheduled"`
	SHA256       string `json:"sha256"`
	// Err is why the rep failed; empty when it passed.
	Err string `json:"err,omitempty"`
	// SelfMS is the traced rep's per-phase self time, by span name.
	SelfMS map[string]float64 `json:"self_ms,omitempty"`
}

// childReport is what a measurement child hands back to the parent.
type childReport struct {
	// SetupS runs from the parent's clock at child start to the first timed
	// rep: process start, manifest load, and the warm-up rep that pages the
	// binary in, grows the heap and fills the event pools.
	SetupS    float64 `json:"setup_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	Warmup    rep     `json:"warmup"`
	Reps      []rep   `json:"reps"`
	// Traced holds the phase-by-phase reps of a traced child, which
	// alternate with the untraced Reps; Spans are their raw spans.
	Traced []rep  `json:"traced,omitempty"`
	Spans  []span `json:"spans,omitempty"`
}

// runChild is the measurement process: one warm-up rep, then timed reps
// until the budget is spent (at least one). Mode "traced" follows every
// untraced rep with a traced one, so the two see the same machine state.
func runChild(mode, manifestPath, outDir string, seconds float64, t0 int64, stdout, stderr io.Writer) int {
	var rpt childReport
	var tr tracer
	rpt.Warmup = untracedRep(manifestPath, outDir, stderr)
	start := time.Now()
	rpt.SetupS = float64(start.UnixNano()-t0) / 1e9
	last := 0.0
	// Stop when the next rep would overshoot the budget by more than half
	// its length: the timed part lands within half a rep of the budget.
	for len(rpt.Reps) == 0 || sinceSeconds(start)+last/2 <= seconds {
		t := time.Now()
		rpt.Reps = append(rpt.Reps, untracedRep(manifestPath, outDir, stderr))
		if mode == "traced" {
			rpt.Traced = append(rpt.Traced, tracedRep(&tr, len(rpt.Traced), manifestPath, outDir))
		}
		last = sinceSeconds(t)
	}
	rpt.Spans = tr.spans
	rpt.PeakRSSMB = peakRSSMB()
	if err := json.NewEncoder(stdout).Encode(rpt); err != nil {
		fmt.Fprintf(stderr, "bench child: %v\n", err)
		return 1
	}
	return 0
}

// hostCost snapshots the allocation and collector counters a rep is
// charged with.
type hostCost struct {
	mem     runtime.MemStats
	samples [3]metrics.Sample
}

func readHostCost() *hostCost {
	c := &hostCost{}
	c.samples[0].Name = "/cpu/classes/gc/total:cpu-seconds"
	c.samples[1].Name = "/cpu/classes/total:cpu-seconds"
	c.samples[2].Name = "/cpu/classes/idle:cpu-seconds"
	metrics.Read(c.samples[:])
	runtime.ReadMemStats(&c.mem)
	return c
}

// charge fills the host-cost fields of r with the counters' movement
// between before and now.
func (before *hostCost) charge(r *rep) {
	after := readHostCost()
	r.Mallocs = after.mem.Mallocs - before.mem.Mallocs
	r.Bytes = after.mem.TotalAlloc - before.mem.TotalAlloc
	r.GCCycles = after.mem.NumGC - before.mem.NumGC
	cpu := func(i int) float64 { return after.samples[i].Value.Float64() - before.samples[i].Value.Float64() }
	r.GCCPUS = cpu(0)
	r.BusyCPUS = cpu(1) - cpu(2)
}

// untracedRep runs the user path exactly as the CLI does.
func untracedRep(manifestPath, outDir string, stderr io.Writer) rep {
	var r rep
	runtime.GC()
	before := readHostCost()
	start := time.Now()
	code := reproCmd(stderr, "run", "-o", outDir, manifestPath)
	r.WallS = sinceSeconds(start)
	before.charge(&r)
	if code != 0 {
		r.Err = fmt.Sprintf("repro run exited %d", code)
		return r
	}
	out, err := os.ReadFile(outputPath(manifestPath, outDir))
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.check(out)
	return r
}

// outputPath is where `repro run -o outDir` lands the workload's report:
// every workload manifest declares output.json as <name>.json.
func outputPath(manifestPath, outDir string) string {
	return filepath.Join(outDir, filepath.Base(manifestPath))
}

// tracedRep drives the same path phase by phase through the public calls
// command's `run` makes, with a span around each. The digest is the
// bench's own output check, timed here so its cost is on the ledger.
func tracedRep(tr *tracer, n int, manifestPath, outDir string) rep {
	var r rep
	runtime.GC()
	before := readHostCost()
	first := len(tr.spans)
	var buf bytes.Buffer
	var sum [sha256.Size]byte
	err := func() error {
		root := tr.begin(fmt.Sprintf("rep%d", n), "bench.rep")
		defer tr.end(root)

		s := tr.begin("", "manifest.load")
		m, err := manifest.ParseFile(manifestPath)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("", "manifest.compile")
		plan, err := manifest.Compile(m)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("", "plan.execute")
		report, err := plan.Execute(m.Workers, io.Discard)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("", "sweep.encode")
		err = sweep.WriteJSON(&buf, report)
		tr.end(s)
		if err != nil {
			return err
		}
		if err := os.WriteFile(outputPath(manifestPath, outDir), buf.Bytes(), 0o644); err != nil {
			return err
		}
		s = tr.begin("", "command.digest")
		sum = sha256.Sum256(buf.Bytes())
		tr.end(s)
		return nil
	}()
	spans := tr.spans[first:]
	r.WallS = float64(spans[0].EndNS-spans[0].StartNS) / 1e9
	before.charge(&r)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.SelfMS = selfTimes(spans)
	r.check(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != r.SHA256 {
		r.Err = "traced digest disagrees with the output check"
	}
	return r
}

// check validates one written report and fills the rep's identity fields:
// the report must hold records, every record a finite positive duration,
// and the engine must have fired events.
func (r *rep) check(out []byte) {
	sum := sha256.Sum256(out)
	r.SHA256 = hex.EncodeToString(sum[:])
	var doc struct {
		Records []struct {
			Metrics map[string]float64 `json:"metrics"`
		} `json:"records"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		r.Err = "report: " + err.Error()
		return
	}
	r.Points = len(doc.Records)
	var events, scheduled float64
	for i, rec := range doc.Records {
		// osu records time a latency distribution (median_us), chaos and
		// train records one operation (duration_us).
		d, ok := rec.Metrics["duration_us"]
		if !ok {
			d, ok = rec.Metrics["median_us"]
		}
		if !ok || math.IsNaN(d) || math.IsInf(d, 0) || d <= 0 {
			r.Err = fmt.Sprintf("record %d: duration %v is not finite and positive", i, d)
		}
		events += rec.Metrics["sim_events"]
		scheduled += rec.Metrics["sim_scheduled"]
	}
	r.SimEvents, r.SimScheduled = uint64(events), uint64(scheduled)
	if r.SimEvents == 0 && r.Err == "" {
		r.Err = "report carries no sim_events"
	}
}

// peakRSSMB reads the process's VmHWM — its resident-set high-water mark —
// in MiB; 0 when /proc is not available.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// --- spans -----------------------------------------------------------------------

// span is one timed interval at a layer boundary. Spans of one repetition
// share a Run id; Parent is the index of the enclosing span, -1 for a root.
// Times are nanoseconds since the tracer's first span.
type span struct {
	Run     string `json:"run"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the bench ends.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span ids
}

// begin opens a span under the innermost open one. run names a new run id;
// empty inherits the parent's.
func (t *tracer) begin(run, name string) int {
	if t.epoch.IsZero() {
		t.epoch = time.Now()
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
		if run == "" {
			run = t.spans[parent].Run
		}
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Run: run, ID: id, Parent: parent, Name: name})
	t.open = append(t.open, id)
	t.spans[id].StartNS = time.Since(t.epoch).Nanoseconds()
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].EndNS = time.Since(t.epoch).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// seconds is a closed span's duration.
func (t *tracer) seconds(id int) float64 {
	return float64(t.spans[id].EndNS-t.spans[id].StartNS) / 1e9
}

// selfTimes returns, per span name, the milliseconds the spans spent
// outside their children: a layer's own share of the interval.
func selfTimes(spans []span) map[string]float64 {
	self := map[int]int64{}
	for _, s := range spans {
		self[s.ID] += s.EndNS - s.StartNS
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / 1e6
	}
	return out
}
