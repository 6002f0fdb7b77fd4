package harness

import (
	"fmt"
	"io"

	"repro/internal/collective"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/sweep"
)

// Replay: seek-and-step debugging of one collective point. A forward pass
// drives the point event by event, snapshotting the full simulation state
// — engine (clock, counters, queue, RNG tree) plus every reachable model
// object including in-flight event payloads — every Interval of virtual
// time. Seeking restores the nearest waypoint at or before the target and
// steps silently up to it; from there, step mode prints the next Steps
// events (firing time, sequence key, handler type) through the engine's
// EventHook. Restoring a waypoint rewinds the same object graph the run
// mutates, so a seek replays exactly the original execution: the printed
// events are the events the run fired the first time.

// ReplayConfig parameterizes one replay session.
type ReplayConfig struct {
	// Interval is the waypoint spacing in virtual time (default 100 µs).
	// Denser waypoints seek faster and cost proportionally more memory.
	Interval sim.Time
	// At is the virtual-time seek target. Targets beyond the end of the
	// run clamp to the last waypoint.
	At sim.Time
	// Steps is how many events step mode prints after the seek
	// (default 20).
	Steps int
}

// waypoint is one restorable position on the replay timeline.
type waypoint struct {
	at       sim.Time
	executed uint64
	esnap    *sim.Snapshot
	state    *snap.State
}

// Replay runs one quiet collective point under the replay debugger,
// writing the waypoint table, the seek trace and the stepped events to w.
// Replay steps a single serial engine and rewinds model state in place, so
// it always builds under the zero Env — a run's shard count and telemetry
// do not apply — and rejects perturbation scenarios: scenario injectors
// hold closure state the snapshot layer cannot rewind.
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
	pt, err := Env{}.buildColl(s, 0, 0)
	if err != nil {
		return err
	}
	s = pt.spec
	starter, ok := pt.alg.(collective.Starter)
	if !ok {
		return fmt.Errorf("harness: %s cannot run non-blocking under the replay driver", s.Algorithm)
	}
	eng := pt.f.Engine()
	capture := func() waypoint {
		esnap := eng.Snapshot()
		// In-flight packets are reachable only through the event queue, so
		// the pending payloads join the model roots.
		roots := append(pt.roots(), esnap.Payloads()...)
		return waypoint{
			at:       eng.Now(),
			executed: eng.Executed,
			esnap:    esnap,
			state:    snap.Capture(modelSnapConfig(), roots...),
		}
	}

	var res *collective.Result
	err = starter.Start(pt.op(s), func(r *collective.Result) { res = r })
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# replay: %s, %d nodes, %d B, seed %d\n", s.Algorithm, s.Nodes, s.MsgBytes, s.Seed)

	// Forward pass: record a waypoint at t=0 and then at the first event
	// boundary past each Interval mark.
	wps := []waypoint{capture()}
	next := cfg.Interval
	for res == nil && eng.Now() < resilienceHorizon && eng.Executed < resilienceEventBudget {
		if !eng.Step() {
			break
		}
		if eng.Now() >= next {
			wps = append(wps, capture())
			for next <= eng.Now() {
				next += cfg.Interval
			}
		}
	}
	if res == nil {
		return fmt.Errorf("harness: %s did not complete within %v / %d events",
			s.Algorithm, resilienceHorizon, resilienceEventBudget)
	}
	fmt.Fprintf(w, "# run: %d events to t=%d ns; %d waypoints every %d ns\n",
		eng.Executed, eng.Now(), len(wps), cfg.Interval)
	for i, wp := range wps {
		fmt.Fprintf(w, "# waypoint %d: t=%d ns, %d events executed, %d B state\n",
			i, wp.at, wp.executed, wp.state.Bytes()+wp.esnap.Bytes())
	}

	// Seek: restore the nearest waypoint at or before the target, then
	// step silently until the next pending event would fire at or past it.
	target := cfg.At
	idx := 0
	for i, wp := range wps {
		if wp.at <= target {
			idx = i
		}
	}
	wp := wps[idx]
	eng.Restore(wp.esnap)
	wp.state.Restore()
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
	eng.EventHook = func(at sim.Time, seq uint64, h sim.Handler) {
		if h == nil {
			fmt.Fprintf(w, "%12d ns  seq=%-20d closure\n", at, seq)
			return
		}
		fmt.Fprintf(w, "%12d ns  seq=%-20d %T\n", at, seq, h)
	}
	for printed < cfg.Steps && eng.Step() {
		printed++
	}
	eng.EventHook = nil
	if printed < cfg.Steps {
		fmt.Fprintf(w, "# queue drained after %d events\n", printed)
	}
	return nil
}
