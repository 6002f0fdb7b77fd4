package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// defaultRounds is how many fresh processes the end-to-end pass starts per
// workload. setup_s and peak_rss_mb have one sample per process; the
// per-rep metrics pool the reps of all rounds, so their medians also see
// process-to-process variation (address-space layout, page placement),
// which is what separates two runs of the driver.
const defaultRounds = 2

// runner is the parent side of the measurement passes.
type runner struct {
	o      options
	exe    string
	tmp    string
	stderr io.Writer
}

// child starts one measurement process for a workload and decodes its
// report. The child's share of the budget is seconds.
func (r *runner) child(mode, name string, seconds float64) (*childReport, error) {
	dir, err := os.MkdirTemp(r.tmp, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	manifestPath, err := generateManifest(dir, name, r.o.seed)
	if err != nil {
		return nil, err
	}
	args := []string{
		"-child", mode, "-manifest", manifestPath, "-o", filepath.Join(dir, "out"),
		"-seconds", fmt.Sprint(seconds), "-t0", fmt.Sprint(time.Now().UnixNano()),
	}
	cmd := exec.Command(r.exe, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)))
	cmd.Stderr = r.stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	var rpt childReport
	if err := json.Unmarshal(stdout.Bytes(), &rpt); err != nil {
		return nil, fmt.Errorf("child report: %w", err)
	}
	return &rpt, nil
}

// account folds a child's reps into the workload's identity and failure
// counts and returns the reps that passed. The first rep ever seen — the
// first child's warm-up — fixes the identity every later rep must match.
func (wr *workloadResult) account(reps []rep) []rep {
	var good []rep
	for _, r := range reps {
		wr.Attempted++
		if wr.OutSHA256 == "" && r.Err == "" {
			wr.Points, wr.SimEvents, wr.SimScheduled, wr.OutSHA256 = r.Points, r.SimEvents, r.SimScheduled, r.SHA256
		}
		switch {
		case r.Err != "":
			wr.fail("rep: %s", r.Err)
		case r.SHA256 != wr.OutSHA256:
			wr.fail("rep: output sha256 %.12s… differs from the first rep's %.12s…", r.SHA256, wr.OutSHA256)
		default:
			good = append(good, r)
		}
	}
	return good
}

// endToEnd is the untraced pass: rounds fresh processes, each warming up
// once and then repeating the workload for its share of the budget.
func (r *runner) endToEnd(name string, wr *workloadResult) {
	samples := map[string][]float64{}
	var timed []rep
	for round := 0; round < r.o.rounds; round++ {
		rpt, err := r.child("e2e", name, r.o.seconds/float64(r.o.rounds))
		if err != nil {
			wr.Attempted++
			wr.fail("round %d: %v", round, err)
			continue
		}
		if len(wr.account([]rep{rpt.Warmup})) == 0 {
			continue
		}
		samples["setup_s"] = append(samples["setup_s"], rpt.SetupS)
		samples["peak_rss_mb"] = append(samples["peak_rss_mb"], rpt.PeakRSSMB)
		timed = append(timed, wr.account(rpt.Reps)...)
	}
	for _, rep := range timed {
		events := float64(rep.SimEvents)
		samples["wall_s"] = append(samples["wall_s"], rep.WallS)
		samples["events_per_sec"] = append(samples["events_per_sec"], events/rep.WallS)
		samples["allocs_per_event"] = append(samples["allocs_per_event"], float64(rep.Mallocs)/events)
		samples["bytes_per_event"] = append(samples["bytes_per_event"], float64(rep.Bytes)/events)
	}
	for _, def := range endToEndMetrics {
		wr.EndToEnd[def.Name] = summarize(def, samples[def.Name])
	}
	wr.putCollector(timed)
}

// putCollector reports the garbage collector's share of the untraced reps:
// its fraction of the process's busy CPU time, and its cycles per rep.
func (wr *workloadResult) putCollector(reps []rep) {
	var frac, cycles []float64
	for _, rep := range reps {
		frac = append(frac, rep.GCCPUS/rep.BusyCPUS)
		cycles = append(cycles, float64(rep.GCCycles))
	}
	wr.PerLayer["runtime.gc_cpu_frac"] = layerValue("runtime.gc_cpu_frac", median(frac))
	wr.PerLayer["runtime.gc_cycles"] = layerValue("runtime.gc_cycles", median(cycles))
}

// tracedPhases are the spans of a traced rep, in path order, and the
// per-layer metric each one's self time is reported as.
var tracedPhases = []string{"manifest.load", "manifest.compile", "plan.execute", "sweep.encode", "command.digest"}

// traced is the per-layer pass over one workload: one process alternating
// untraced and traced reps. Each phase's self time is the median over the
// traced reps; trace.overhead_frac is the median, over the pairs, of a
// traced rep's wall against the untraced rep just before it, so a slow
// spell of the machine hits both sides of a ratio.
func (r *runner) traced(name string, wr *workloadResult) {
	rpt, err := r.child("traced", name, r.o.seconds)
	if err != nil {
		wr.Attempted++
		wr.fail("traced pass: %v", err)
		return
	}
	wr.account([]rep{rpt.Warmup})
	plain, traced := wr.account(rpt.Reps), wr.account(rpt.Traced)
	if len(plain) != len(rpt.Reps) || len(traced) != len(plain) {
		return // a rep failed; the failure is already on the ledger
	}
	for _, phase := range tracedPhases {
		var s []float64
		for _, rep := range traced {
			s = append(s, rep.SelfMS[phase])
		}
		wr.PerLayer[phase+"_ms"] = layerValue(phase+"_ms", median(s))
	}
	var overhead []float64
	for i := range traced {
		overhead = append(overhead, traced[i].WallS/plain[i].WallS-1)
	}
	wr.PerLayer["trace.overhead_frac"] = layerValue("trace.overhead_frac", median(overhead))
	// In a per-layer-only run the untraced reps of this pass stand in for
	// the end-to-end pass's collector numbers.
	if wr.PerLayer["runtime.gc_cpu_frac"] == nil {
		wr.putCollector(plain)
	}
	path := filepath.Join(r.o.outDir, "trace_"+name+".json")
	if err := writeJSON(path, rpt.Spans); err != nil {
		fmt.Fprintf(r.stderr, "bench: %v\n", err)
	}
}
