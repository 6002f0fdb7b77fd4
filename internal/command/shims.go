package command

import (
	"flag"
	"io"

	"repro/internal/cli"
	"repro/internal/manifest"
)

// This file holds the seven flag-compatible shims: each parses the exact
// flag surface of the historical binary it is named after, folds the flags
// into a manifest.Manifest, and executes it through the shared path.

// runOSU is the OSU-style microbenchmark shim (was cmd/osu).
func runOSU(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro osu", flag.ContinueOnError)
	op := fs.String("op", "allgather", "collective: allgather, broadcast, reduce-scatter or allreduce")
	algo := fs.String("algo", "mcast", "algorithm family (joined with -op into a registry name, e.g. mcast-allgather)")
	nodes := fs.Int("nodes", 32, "participating nodes (<=188)")
	sizesFlag := fs.String("sizes", "4096:1048576", "size range min:max (doubling) or comma list")
	iters := fs.Int("iters", 10, "measured iterations per size")
	warmup := fs.Int("warmup", 2, "warm-up iterations per size (excluded)")
	linkGbps := fs.Float64("link", 56, "link bandwidth in Gbit/s (testbed: 56)")
	jitter := fs.Int("jitter", 0, "per-delivery network noise in microseconds (enables run-to-run variability)")
	seed := fs.Uint64("seed", 1, "base sweep seed (per-point seeds derive from it)")
	comparePath := fs.String("compare", "", "baseline BENCH_*.json to diff the records against")
	tol := fs.Float64("tol", 0.05, "relative tolerance for -compare")
	tracePath := fs.String("trace", "", "write the Figure-9 protocol phase timeline of one representative run to this file")
	var c common
	c.register(fs, 0)
	if code := parseFlags(fs, args, stderr); code >= 0 {
		return code
	}
	sizes, err := manifest.ParseSizes(*sizesFlag)
	if err != nil {
		return fail(stderr, 2, "osu: %v", err)
	}
	checks := append(c.validate(),
		cli.Positive("iters", *iters),
		cli.NonNegative("warmup", *warmup),
		cli.NonNegative("jitter", *jitter),
		cli.Writable("trace", *tracePath))
	if err := cli.Validate("osu", checks...); err != nil {
		return fail(stderr, 2, "%v", err)
	}
	m := manifest.Manifest{
		Kind: "osu",
		Grid: manifest.Grid{
			Algorithms: []string{*algo + "-" + *op},
			Ops:        []string{*op},
			Nodes:      []int{*nodes},
			Sizes:      sizes,
		},
		Seed: seed,
		OSU:  &manifest.OSUSpec{Iters: *iters, Warmup: warmup, LinkGbps: *linkGbps, JitterUS: *jitter},
	}
	if *comparePath != "" {
		m.Baseline = &manifest.Baseline{Path: *comparePath, Tolerance: *tol}
	}
	c.apply(&m)
	return execute("osu", m, c.diag(*tracePath), stdout, stderr)
}

// runAG is the at-scale collective figures shim (was cmd/agbench).
func runAG(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro ag", flag.ContinueOnError)
	fig := fs.Int("fig", 0, "figure to regenerate (10 or 11)")
	nodesFlag := fs.String("nodes", "", "comma-separated node counts (fig 10) or single count (fig 11)")
	sizesFlag := fs.String("sizes", "", "comma-separated message sizes in bytes")
	tracePath := fs.String("trace", "", "write the protocol phase timeline of one representative run to this file")
	var c common
	c.register(fs, 0)
	if code := parseFlags(fs, args, stderr); code >= 0 {
		return code
	}
	checks := append(c.validate(), cli.Writable("trace", *tracePath))
	if err := cli.Validate("ag", checks...); err != nil {
		return fail(stderr, 2, "%v", err)
	}
	m := manifest.Manifest{Kind: "ag", Figures: []int{*fig}}
	if *nodesFlag != "" {
		nodes, err := manifest.ParseSizes(*nodesFlag)
		if err != nil {
			return fail(stderr, 2, "ag: bad -nodes: %v", err)
		}
		if *fig == 11 && len(nodes) > 1 {
			// The historical binary used only the first entry for fig 11.
			nodes = nodes[:1]
		}
		m.Grid.Nodes = nodes
	}
	if *sizesFlag != "" {
		sizes, err := manifest.ParseSizes(*sizesFlag)
		if err != nil {
			return fail(stderr, 2, "ag: bad -sizes: %v", err)
		}
		m.Grid.Sizes = sizes
	}
	c.apply(&m)
	return execute("ag", m, c.diag(*tracePath), stdout, stderr)
}

// runTraffic is the Figure 12 switch-traffic shim (was cmd/trafficbench).
func runTraffic(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro traffic", flag.ContinueOnError)
	nodes := fs.Int("nodes", 188, "participating nodes (2..188)")
	msg := fs.Int("msg", 64<<10, "message size in bytes (> 0)")
	iters := fs.Int("iters", 10, "measured iterations (> 0)")
	tracePath := fs.String("trace", "", "write the protocol phase timeline of one representative run to this file")
	var c common
	c.register(fs, 0)
	if code := parseFlags(fs, args, stderr); code >= 0 {
		return code
	}
	checks := append(c.validate(),
		cli.Positive("iters", *iters),
		cli.Writable("trace", *tracePath))
	if err := cli.Validate("traffic", checks...); err != nil {
		return fail(stderr, 2, "%v", err)
	}
	m := manifest.Manifest{
		Kind:    "traffic",
		Grid:    manifest.Grid{Nodes: []int{*nodes}, Sizes: manifest.Sizes{*msg}},
		Traffic: &manifest.TrafficSpec{Iters: *iters},
	}
	c.apply(&m)
	return execute("traffic", m, c.diag(*tracePath), stdout, stderr)
}

// runDPA is the SmartNIC-offloading experiments shim (was cmd/dpabench).
func runDPA(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro dpa", flag.ContinueOnError)
	fig := fs.Int("fig", 0, "figure to regenerate (5, 13, 14, 15, 16)")
	table := fs.Int("table", 0, "table to regenerate (1)")
	all := fs.Bool("all", false, "run every DPA experiment")
	tracePath := fs.String("trace", "", "write the protocol phase timeline of one representative run to this file (dpa has no traceable point; rejected at run time)")
	var c common
	c.register(fs, 0)
	if code := parseFlags(fs, args, stderr); code >= 0 {
		return code
	}
	checks := append(c.validate(), cli.Writable("trace", *tracePath))
	if err := cli.Validate("dpa", checks...); err != nil {
		return fail(stderr, 2, "%v", err)
	}
	m := manifest.Manifest{Kind: "dpa", All: *all}
	if *fig != 0 {
		m.Figures = []int{*fig}
	}
	if *table != 0 {
		m.Tables = []int{*table}
	}
	c.apply(&m)
	return execute("dpa", m, c.diag(*tracePath), stdout, stderr)
}

// runCost is the analytic cost-model shim (was cmd/costmodel).
func runCost(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro cost", flag.ContinueOnError)
	fig := fs.Int("fig", 0, "figure to regenerate (2 or 7)")
	speedup := fs.Bool("speedup", false, "Appendix B concurrent {AG,RS} study")
	economics := fs.Bool("economics", false, "§VII SmartNIC offloading economics")
	all := fs.Bool("all", false, "run everything")
	tracePath := fs.String("trace", "", "write the protocol phase timeline of one representative run to this file (cost has no traceable point; rejected at run time)")
	var c common
	c.register(fs, 0)
	if code := parseFlags(fs, args, stderr); code >= 0 {
		return code
	}
	checks := append(c.validate(), cli.Writable("trace", *tracePath))
	if err := cli.Validate("cost", checks...); err != nil {
		return fail(stderr, 2, "%v", err)
	}
	m := manifest.Manifest{Kind: "cost", Speedup: *speedup, Economics: *economics, All: *all}
	if *fig != 0 {
		m.Figures = []int{*fig}
	}
	c.apply(&m)
	return execute("cost", m, c.diag(*tracePath), stdout, stderr)
}

// runChaos is the perturbation-scenario shim (was cmd/chaosbench).
func runChaos(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro chaos", flag.ContinueOnError)
	algosFlag := fs.String("algos", "mcast-allgather,ring-allgather", "comma list of registry algorithms to perturb")
	scenariosFlag := fs.String("scenarios", "all", "comma list of scenario presets, or \"all\"")
	nodes := fs.Int("nodes", 32, "participating nodes (2..188)")
	msg := fs.Int("msg", 64<<10, "message size in bytes (> 0)")
	seed := fs.Uint64("seed", 7, "base sweep seed (per-point seeds derive from it)")
	tracePath := fs.String("trace", "", "write the protocol phase timeline of one representative perturbed run to this file")
	var c common
	c.register(fs, 0)
	if code := parseFlags(fs, args, stderr); code >= 0 {
		return code
	}
	checks := append(c.validate(), cli.Writable("trace", *tracePath))
	if err := cli.Validate("chaos", checks...); err != nil {
		return fail(stderr, 2, "%v", err)
	}
	scenarios := []string{"all"}
	if *scenariosFlag != "all" {
		scenarios = cli.SplitList(*scenariosFlag)
	}
	m := manifest.Manifest{
		Kind: "chaos",
		Grid: manifest.Grid{
			Algorithms: cli.SplitList(*algosFlag),
			Scenarios:  scenarios,
			Nodes:      []int{*nodes},
			Sizes:      manifest.Sizes{*msg},
		},
		Seed: seed,
	}
	c.apply(&m)
	return execute("chaos", m, c.diag(*tracePath), stdout, stderr)
}

// runTrain is the training-workload shim (was cmd/trainbench).
func runTrain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro train", flag.ContinueOnError)
	workloadsFlag := fs.String("workloads", "fsdp-ring,fsdp-inc", "comma list of workload presets to run, or \"all\"")
	nodes := fs.Int("nodes", 16, "hosts per job (>= 2)")
	shard := fs.Int("shard", 512<<10, "per-rank shard/segment bytes (> 0)")
	layers := fs.Int("layers", 6, "FSDP model depth (> 0)")
	computeUS := fs.Int("compute", 150, "forward+backward compute per layer in microseconds (>= 0)")
	jobs := fs.Int("jobs", 2, "tenant count of multi-job presets (> 0)")
	scenariosFlag := fs.String("scenarios", "", "comma list of scenario presets to compose onto the step, or \"all\" (empty: quiet fabric)")
	seed := fs.Uint64("seed", 21, "base sweep seed (per-point seeds derive from it)")
	comparePath := fs.String("compare", "", "baseline BENCH_*.json to diff the records against")
	tol := fs.Float64("tol", 0.05, "relative tolerance for -compare")
	tracePath := fs.String("trace", "", "write the Figure-9 protocol phase timeline of one representative run to this file")
	var c common
	c.register(fs, 0)
	if code := parseFlags(fs, args, stderr); code >= 0 {
		return code
	}
	checks := append(c.validate(),
		cli.Positive("layers", *layers),
		cli.NonNegative("compute", *computeUS),
		cli.Positive("jobs", *jobs),
		cli.Writable("trace", *tracePath))
	if err := cli.Validate("train", checks...); err != nil {
		return fail(stderr, 2, "%v", err)
	}
	workloads := []string{"all"}
	if *workloadsFlag != "all" {
		workloads = cli.SplitList(*workloadsFlag)
	}
	var scenarios []string
	switch *scenariosFlag {
	case "":
	case "all":
		scenarios = []string{"all"}
	default:
		scenarios = cli.SplitList(*scenariosFlag)
	}
	m := manifest.Manifest{
		Kind: "train",
		Grid: manifest.Grid{
			Workloads: workloads,
			Scenarios: scenarios,
			Nodes:     []int{*nodes},
			Sizes:     manifest.Sizes{*shard},
		},
		Seed:  seed,
		Train: &manifest.TrainSpec{Layers: *layers, ComputeUS: *computeUS, Jobs: *jobs},
	}
	if *comparePath != "" {
		m.Baseline = &manifest.Baseline{Path: *comparePath, Tolerance: *tol}
	}
	c.apply(&m)
	return execute("train", m, c.diag(*tracePath), stdout, stderr)
}
