// Command bench is the repository's host-time ledger: four manifest
// workloads run through the full `repro run` path, scored on end-to-end
// host metrics, plus a traced pass and per-layer drivers that attribute
// the host time to modules. README.md in this directory is the contract:
// why each workload exists, what every metric means, how the layers'
// numbers are expected to move the end-to-end ones, and which symbols of
// the repository the bench is pinned to.
//
// Host time is what the simulator takes; simulated time is what the
// modelled fabric takes. Every timing printed here is host time. Simulated
// statistics are deterministic and are checked for identity, never scored.
//
//	go run ./bench                          # the whole ledger, all four workloads
//	go run ./bench -workload ring64 -trace 0 -seconds 12 -seed 3
//	go run ./bench -compare a/result.json b/result.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// maxProcs caps GOMAXPROCS for the bench and its children: the simulation
// is one thread (`workers: 1`), the second thread is the garbage
// collector's, and a fixed cap keeps numbers from a 2-core container and a
// 64-core workstation comparable.
const maxProcs = 2

// options are the resolved inputs of one bench invocation.
type options struct {
	workload string  // one workload, or "" for all four
	seed     uint64  // 0 keeps each manifest kind's default seed
	seconds  float64 // timed budget per workload and pass
	trace    int     // 0 end-to-end pass, 1 per-layer pass, -1 both
	rounds   int     // fresh child processes per workload in the end-to-end pass
	outDir   string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload ("+strings.Join(workloadNames(), ", ")+"); default all")
	fs.Uint64Var(&o.seed, "seed", 0, "seed written into the generated manifests (0 = each kind's default 1/7/21)")
	fs.Float64Var(&o.seconds, "seconds", 30, "timed budget per workload and pass, in seconds")
	fs.IntVar(&o.trace, "trace", -1, "0 = end-to-end pass only, 1 = per-layer pass only, -1 = both")
	fs.StringVar(&o.outDir, "o", filepath.Join(buildDir, "out"), "directory for result.json and trace_<workload>.json")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	child := fs.String("child", "", "internal: run as a measurement child (e2e or traced)")
	manifestPath := fs.String("manifest", "", "internal: generated manifest of the child")
	t0 := fs.Int64("t0", 0, "internal: parent's clock at child start, unix ns")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *child != "":
		return runChild(*child, *manifestPath, o.outDir, o.seconds, *t0, stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if o.workload != "" && !slices.Contains(workloadNames(), o.workload) {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds <= 0 || o.trace < -1 || o.trace > 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be > 0, -trace one of -1, 0, 1")
		return 2
	}
	o.rounds = defaultRounds
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return runLedger(o, exe, stdout, stderr)
}

// runLedger is the parent side of a bench run: header, canary, the
// requested passes over the requested workloads, result file, and — for a
// single workload — the driver's one-line JSON verdict.
func runLedger(o options, exe string, stdout, stderr io.Writer) int {
	names := workloadNames()
	if o.workload != "" {
		names = []string{o.workload}
	}
	tmp, err := makeTempDir()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}

	res := &result{Schema: 1, Inputs: resolveInputs(o, names), Workloads: map[string]*workloadResult{}}
	printHeader(stdout, res.Inputs)

	// Correctness canary before any timing: the repo's own digest-pinned
	// manifests must validate and reproduce their expect.sha256.
	canary := runCanary(tmp, stderr)
	res.Canary = canary
	fmt.Fprintf(stdout, "canary: %s in %.3f s (validate manifests; run pr.json chaos.json train.json against their repo-pinned expect.sha256)\n",
		okWord(canary.OK), canary.Seconds)
	fmt.Fprintln(stdout, "accuracy: the model's agreement with the paper is covered by tier-1 internal/core/claims_test.go; this bench scores host time only and gives no error figure")

	r := runner{o: o, exe: exe, tmp: tmp, stderr: stderr}
	for _, name := range names {
		wr := &workloadResult{EndToEnd: map[string]*scored{}, PerLayer: map[string]*value{}}
		res.Workloads[name] = wr
		if !canary.OK {
			// A broken model invalidates every number: nothing is timed, and
			// everything that would have run counts as failed.
			wr.Attempted = 1
			wr.fail("canary failed")
			continue
		}
		if o.trace != 1 {
			r.endToEnd(name, wr)
			printEndToEnd(stdout, name, wr)
		}
		if o.trace != 0 {
			r.traced(name, wr)
			printPerLayer(stdout, "per-layer "+name+" (traced pass)", wr.PerLayer)
		}
	}
	if canary.OK && o.trace != 0 {
		res.PerLayer = map[string]*value{"bench.canary_s": layerValue("bench.canary_s", canary.Seconds)}
		spans, err := runLayers(o, tmp, res.PerLayer, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: layers: %v\n", err)
			res.LayersError = err.Error()
		}
		printPerLayer(stdout, "per-layer (facade mirror, layer drivers, ratios)", res.PerLayer)
		if err := writeJSON(filepath.Join(o.outDir, "trace_layers.json"), spans); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
		}
	}

	path := filepath.Join(o.outDir, "result.json")
	if err := writeJSON(path, res); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "result: %s\n", path)

	attempted, failed := 0, 0
	for _, name := range names {
		wr := res.Workloads[name]
		attempted += wr.Attempted
		failed += wr.Failed
		for _, f := range wr.Failures {
			fmt.Fprintf(stderr, "bench: %s: %s\n", name, f)
		}
	}
	correct := canary.OK && failed == 0 && res.LayersError == ""
	if o.workload != "" && o.trace >= 0 {
		printVerdict(stdout, res, o, correct, attempted, failed)
	}
	if !correct {
		return 1
	}
	return 0
}

// printVerdict writes the driver's contract line: one JSON object, last on
// stdout, holding every end-to-end metric (-trace 0) or every per-layer
// metric (-trace 1) of the one workload that ran.
func printVerdict(w io.Writer, res *result, o options, correct bool, attempted, failed int) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	wr := res.Workloads[o.workload]
	if o.trace == 0 {
		for name, s := range wr.EndToEnd {
			metrics[name] = metric{s.Median, s.Unit}
		}
	} else {
		for _, set := range []map[string]*value{wr.PerLayer, res.PerLayer} {
			for name, v := range set {
				metrics[name] = metric{v.Value, v.Unit}
			}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(attempted, 1), failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", line)
}

// inputs is the run header: everything that decides what was measured.
type inputs struct {
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Seed       uint64   `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Rounds     int      `json:"rounds"`
	Trace      int      `json:"trace"`
	Workloads  []string `json:"workloads"`
	BudgetS    float64  `json:"budget_s"`
}

func resolveInputs(o options, names []string) inputs {
	in := inputs{
		Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.seed, Seconds: o.seconds, Rounds: o.rounds, Trace: o.trace, Workloads: names,
	}
	// The timed budget: one share per pass per workload. Warm-ups, the
	// canary and the layer drivers come on top and are reported as they run.
	passes := 2
	if o.trace >= 0 {
		passes = 1
	}
	in.BudgetS = o.seconds * float64(passes*len(names))
	return in
}

// commit names the checkout's HEAD when it is a git work tree, without
// letting git search parent directories for some other repository.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func printHeader(w io.Writer, in inputs) {
	seed := fmt.Sprintf("%d (chaos32 is seed-pinned to its kind default 7)", in.Seed)
	if in.Seed == 0 {
		seed = "0 (kind defaults: osu 1, chaos 7, train 21)"
	}
	pass := map[int]string{-1: "end-to-end + per-layer", 0: "end-to-end", 1: "per-layer"}[in.Trace]
	fmt.Fprintln(w, "== bench: inputs summary")
	fmt.Fprintf(w, "  commit      %s\n", in.Commit)
	fmt.Fprintf(w, "  go          %s\n", in.GoVersion)
	fmt.Fprintf(w, "  nproc       %d\n", in.NumCPU)
	fmt.Fprintf(w, "  GOMAXPROCS  %d\n", in.GOMAXPROCS)
	fmt.Fprintf(w, "  seed        %s\n", seed)
	fmt.Fprintf(w, "  workloads   %s\n", strings.Join(in.Workloads, " "))
	fmt.Fprintf(w, "  passes      %s\n", pass)
	fmt.Fprintf(w, "  reps        as many as fit %.3g s per workload and pass, split over %d fresh processes (at least one rep each), after one untimed warm-up rep per process\n", in.Seconds, in.Rounds)
	fmt.Fprintf(w, "  budget      %.0f s timed, plus warm-ups, canary and layer drivers\n", in.BudgetS)
	fmt.Fprintln(w, "  load model  closed loop, one client: each rep starts when the previous one has finished")
	fmt.Fprintln(w, "  clock       every timing below is host time; simulated statistics are checked for identity, not scored")
}

func okWord(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAILED"
}

// buildDir is the one directory the bench writes to: build outputs of
// run.sh, temp manifests, sweep outputs, and the default result directory.
// It is relative to the checkout root and listed in .gitignore.
const buildDir = ".bench_build"

func makeTempDir() (string, error) {
	base := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// sinceSeconds is time.Since in float seconds.
func sinceSeconds(t time.Time) float64 { return time.Since(t).Seconds() }
