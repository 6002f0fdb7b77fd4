package harness

import (
	"fmt"
	"io"

	"repro/internal/collective"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// Replay: seek-and-step debugging of one collective point. A forward pass
// drives the point event by event and records a waypoint — the virtual time
// and the executed-event count — every Interval of virtual time. Seeking
// re-executes the run: it rebuilds the point, starts it, steps to the
// nearest waypoint at or before the target by event count, then steps
// silently up to the target. Runs are deterministic for a fixed seed, so
// the re-executed prefix is the original execution; from there, step mode
// prints the next Steps events (firing time, sequence key, handler type)
// through the engine's EventHook — the events the run fired the first time.

// ReplayConfig parameterizes one replay session.
type ReplayConfig struct {
	// Interval is the waypoint spacing in virtual time (default 100 µs).
	Interval sim.Time
	// At is the virtual-time seek target. Targets beyond the end of the
	// run clamp to the last waypoint.
	At sim.Time
	// Steps is how many events step mode prints after the seek
	// (default 20).
	Steps int
}

// waypoint is one position on the replay timeline a seek can re-execute to.
type waypoint struct {
	at       sim.Time
	executed uint64
}

// Replay runs one quiet collective point under the replay debugger,
// writing the waypoint table, the seek trace and the stepped events to w.
// It builds with telemetry off — a run's telemetry does not apply — and
// supports only the quiet scenario: it starts the bare collective and
// installs no injectors.
func Replay(s sweep.Spec, cfg ReplayConfig, w io.Writer) error {
	if s.Scenario != "" && s.Scenario != scenario.Quiet {
		return fmt.Errorf("harness: replay supports only the quiet scenario, not %q", s.Scenario)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * sim.Microsecond
	}
	if cfg.Steps <= 0 {
		cfg.Steps = 20
	}
	eng, done, err := startReplay(s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# replay: %s, %d nodes, %d B, seed %d\n", s.Algorithm, s.Nodes, s.MsgBytes, s.Seed)

	// Forward pass: record a waypoint at t=0 and then at the first event
	// boundary past each Interval mark.
	wps := []waypoint{{eng.Now(), eng.Executed}}
	next := cfg.Interval
	for !done() && eng.Now() < resilienceHorizon && eng.Executed < resilienceEventBudget {
		if !eng.Step() {
			break
		}
		if eng.Now() >= next {
			wps = append(wps, waypoint{eng.Now(), eng.Executed})
			for next <= eng.Now() {
				next += cfg.Interval
			}
		}
	}
	if !done() {
		return fmt.Errorf("harness: %s did not complete within %v / %d events",
			s.Algorithm, resilienceHorizon, resilienceEventBudget)
	}
	fmt.Fprintf(w, "# run: %d events to t=%d ns; %d waypoints every %d ns\n",
		eng.Executed, eng.Now(), len(wps), cfg.Interval)
	for i, wp := range wps {
		fmt.Fprintf(w, "# waypoint %d: t=%d ns, %d events executed\n", i, wp.at, wp.executed)
	}

	// Seek: re-execute the run to the nearest waypoint at or before the
	// target, then step silently until the next pending event would fire
	// at or past it.
	target := cfg.At
	idx := 0
	for i, wp := range wps {
		if wp.at <= target {
			idx = i
		}
	}
	wp := wps[idx]
	if eng, _, err = startReplay(s); err != nil {
		return err
	}
	for eng.Executed < wp.executed && eng.Step() {
	}
	skipped := 0
	for {
		t, ok := eng.PeekTime()
		if !ok || t >= target {
			break
		}
		eng.Step()
		skipped++
	}
	fmt.Fprintf(w, "# seek t=%d ns: waypoint %d (t=%d ns) + %d events -> now=%d ns\n",
		target, idx, wp.at, skipped, eng.Now())

	// Step mode: print the next Steps events as they fire.
	printed := 0
	eng.EventHook = func(at sim.Time, seq uint64, h sim.Handler) { fmt.Fprintln(w, eventLine(at, seq, h)) }
	for printed < cfg.Steps && eng.Step() {
		printed++
	}
	eng.EventHook = nil
	if printed < cfg.Steps {
		fmt.Fprintf(w, "# queue drained after %d events\n", printed)
	}
	return nil
}

// startReplay builds the point fresh with telemetry off and starts its
// collective non-blocking, returning the engine positioned at the start of
// the run and a report of whether the collective has completed. Every call
// begins the same execution.
func startReplay(s sweep.Spec) (*sim.Engine, func() bool, error) {
	pt, err := buildColl(telemetry.Config{}, s, 0)
	if err != nil {
		return nil, nil, err
	}
	var res *collective.Result
	if err := pt.alg.Start(pt.op(pt.spec), func(r *collective.Result) { res = r }); err != nil {
		return nil, nil, err
	}
	return pt.f.Engine(), func() bool { return res != nil }, nil
}

// eventLine renders one fired event the way step mode prints it: firing
// time, sequence key and handler type.
func eventLine(at sim.Time, seq uint64, h sim.Handler) string {
	return fmt.Sprintf("%12d ns  seq=%-20d %T", at, seq, h)
}
