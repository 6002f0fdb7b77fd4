package command

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/harness"
	"repro/internal/manifest"
	"repro/internal/sim"
)

// runReplay implements `repro replay [-interval US] [-at US] [-steps N]
// <manifest>`: load the manifest, pick its replayable point (the quiet
// collective cell the plan designates), run it once under the replay
// debugger — recording a waypoint (virtual time, executed-event count) every
// -interval of virtual time — then seek to -at by re-executing the run to
// the nearest waypoint and print the next -steps events. The output is
// deterministic: the stepped events are exactly the events the original run
// fired at that position.
func runReplay(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro replay", flag.ContinueOnError)
	interval := fs.Int("interval", 100, "waypoint spacing in virtual microseconds (> 0)")
	at := fs.Int("at", 0, "seek target in virtual microseconds (>= 0; clamps to the end of the run)")
	steps := fs.Int("steps", 20, "events to print after the seek (> 0)")
	if code := parseFlags(fs, args, stderr); code >= 0 {
		return code
	}
	if fs.NArg() != 1 {
		return fail(stderr, 2, "usage: repro replay [-interval US] [-at US] [-steps N] <manifest>")
	}
	if *interval <= 0 || *at < 0 || *steps <= 0 {
		return fail(stderr, 2, "replay: -interval and -steps must be > 0, -at >= 0")
	}
	if int64(*interval) > sim.MaxMicros || int64(*at) > sim.MaxMicros {
		return fail(stderr, 2, "replay: -interval and -at must be <= %d µs", sim.MaxMicros)
	}
	plan, err := manifest.Load(fs.Arg(0), manifest.Overrides{Workers: -1})
	if err != nil {
		return fail(stderr, 2, "replay: %v", err)
	}
	if plan.ReplaySpec == nil {
		return fail(stderr, 2, "replay: no section of %s has a replayable point", fs.Arg(0))
	}
	// The replay driver builds the point with telemetry off; the
	// manifest's telemetry block does not apply to this run.
	cfg := harness.ReplayConfig{
		Interval: sim.Time(*interval) * sim.Microsecond,
		At:       sim.Time(*at) * sim.Microsecond,
		Steps:    *steps,
	}
	if err := harness.Replay(*plan.ReplaySpec, cfg, stdout); err != nil {
		return fail(stderr, 1, "replay: %v", err)
	}
	fmt.Fprintln(stdout, "# replay done")
	return 0
}
