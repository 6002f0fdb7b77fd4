// Package command implements every subcommand of the repro binary. An
// experiment is always a manifest: run executes manifests, validate and
// list check and describe them, and trace and replay inspect what a run
// produced. Flags on run only redirect outputs, size the worker pool and
// add diagnostics; they never describe the experiment itself.
//
// Subcommands return exit codes instead of exiting, so the whole surface
// is table-testable: 0 success, 1 runtime failure (simulation errors,
// digest mismatches), 2 invalid flags or manifests.
package command

import (
	"fmt"
	"io"
)

// subcommand is one entry of the dispatch table.
type subcommand struct {
	name    string
	summary string
	run     func(args []string, stdout, stderr io.Writer) int
}

var subcommands = []subcommand{
	{"run", "execute manifests: repro run <manifest...> [-workers N] [-o DIR] [-json PATH]", runManifest},
	{"validate", "check manifests without running: repro validate <manifest...>", runValidate},
	{"list", "print registered kinds, algorithms, scenarios, workloads and presets", runList},
	{"trace", "summarize a telemetry metrics.json: repro trace [-top N] <metrics.json>", runTraceCmd},
	{"replay", "seek-and-step debugger over one collective point: repro replay [-at US] [-steps N] <manifest>", runReplay},
}

// Run dispatches args[0] as a subcommand and returns its exit code.
func Run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	name := args[0]
	if name == "help" || name == "-h" || name == "-help" || name == "--help" {
		usage(stdout)
		return 0
	}
	for _, sc := range subcommands {
		if sc.name == name {
			return sc.run(args[1:], stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "repro: unknown subcommand %q\n\n", name)
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: repro <subcommand> [flags]")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Subcommands:")
	for _, sc := range subcommands {
		fmt.Fprintf(w, "  %-9s %s\n", sc.name, sc.summary)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Every experiment is a manifest (see manifests/). A run is deterministic:")
	fmt.Fprintln(w, "the same manifest produces byte-identical output at any -workers count.")
}
