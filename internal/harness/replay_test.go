package harness

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/collective"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// firedEvent is one event of a straight-through run, as step mode prints it.
type firedEvent struct {
	at   sim.Time
	line string
}

// straightThrough builds and starts the point, then runs it to a drained
// queue, recording every fired event through the engine's EventHook. It
// returns the events, the clock and the executed-event count at the start.
func straightThrough(t *testing.T, s sweep.Spec) ([]firedEvent, sim.Time, uint64) {
	t.Helper()
	pt, err := Env{}.buildColl(s, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var res *collective.Result
	if err := pt.alg.(collective.Starter).Start(pt.op(pt.spec), func(r *collective.Result) { res = r }); err != nil {
		t.Fatal(err)
	}
	eng := pt.f.Engine()
	start, executed := eng.Now(), eng.Executed
	var evs []firedEvent
	eng.EventHook = func(at sim.Time, seq uint64, h sim.Handler) {
		evs = append(evs, firedEvent{at, eventLine(at, seq, h)})
	}
	eng.Run()
	if res == nil {
		t.Fatalf("%s did not complete", s.Algorithm)
	}
	return evs, start, executed
}

// TestReplaySeekMatchesForwardPass pins what makes `repro replay` an exact
// debugger: a seek that re-executes the run lands where the straight-through
// run was at the target, and the stepped events are the events that run
// fired next. Targets cover a waypoint exactly, a point between waypoints,
// and a point past the end of the run. The waypoint table itself must name
// positions of the straight-through run.
func TestReplaySeekMatchesForwardPass(t *testing.T) {
	const steps = 40
	for _, algo := range []string{"mcast-allgather", "ring-allgather"} {
		s := sweep.Spec{Algorithm: algo, Scenario: "quiet", Nodes: 16, MsgBytes: 4096, Seed: 7}
		ref, start, executed0 := straightThrough(t, s)
		// The first event at or after a 5 µs mark is where that mark's
		// waypoint is recorded.
		onWaypoint := ref[len(ref)-1].at
		for _, ev := range ref {
			if ev.at >= 10*sim.Microsecond {
				onWaypoint = ev.at
				break
			}
		}
		for _, cfg := range []ReplayConfig{
			{Interval: 5 * sim.Microsecond, At: onWaypoint, Steps: steps},
			{Interval: 10 * sim.Microsecond, At: 13*sim.Microsecond + 7, Steps: steps},
			{Interval: 5 * sim.Microsecond, At: sim.Second, Steps: steps},
		} {
			label := fmt.Sprintf("%s interval=%d at=%d", algo, cfg.Interval, cfg.At)
			var out strings.Builder
			if err := Replay(s, cfg, &out); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkReplay(t, label, out.String(), cfg, ref, start, executed0)
			if onWP := fmt.Sprintf("(t=%d ns) + 0 events", onWaypoint); cfg.At == onWaypoint && !strings.Contains(out.String(), onWP) {
				t.Errorf("%s: the seek did not land on the waypoint at the target:\n%s", label, out.String())
			}
		}
	}
}

// checkReplay reads a Replay transcript back against the straight-through
// events.
func checkReplay(t *testing.T, label, out string, cfg ReplayConfig, ref []firedEvent, start sim.Time, executed0 uint64) {
	t.Helper()
	// A position on the timeline is the number of reference events fired
	// before it: executed-event count minus executed0.
	var wpExecuted []uint64
	var seekIdx, skipped int
	var seekWP, now sim.Time
	var stepped []string
	seekFound := false
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		var i int
		var at sim.Time
		var executed uint64
		switch {
		case strings.HasPrefix(line, "# waypoint "):
			if _, err := fmt.Sscanf(line, "# waypoint %d: t=%d ns, %d events executed", &i, &at, &executed); err != nil {
				t.Fatalf("%s: waypoint line %q: %v", label, line, err)
			}
			pos := int(executed - executed0)
			if pos > len(ref) || (pos > 0 && ref[pos-1].at != at) || (pos == 0 && at != start) {
				t.Errorf("%s: waypoint %d (t=%d, %d executed) is not a position of the straight-through run", label, i, at, executed)
			}
			wpExecuted = append(wpExecuted, executed)
		case strings.HasPrefix(line, "# seek "):
			var target sim.Time
			if _, err := fmt.Sscanf(line, "# seek t=%d ns: waypoint %d (t=%d ns) + %d events -> now=%d ns",
				&target, &seekIdx, &seekWP, &skipped, &now); err != nil {
				t.Fatalf("%s: seek line %q: %v", label, line, err)
			}
			seekFound = true
		case !strings.HasPrefix(line, "#"):
			stepped = append(stepped, line)
		}
	}
	if !seekFound || seekIdx >= len(wpExecuted) {
		t.Fatalf("%s: no seek onto a listed waypoint in:\n%s", label, out)
	}
	pos := int(wpExecuted[seekIdx]-executed0) + skipped
	if pos > len(ref) {
		t.Fatalf("%s: seek position %d past the run's %d events", label, pos, len(ref))
	}
	wantNow := start
	if pos > 0 {
		wantNow = ref[pos-1].at
	}
	if now != wantNow {
		t.Errorf("%s: seek now=%d, straight-through run was at %d", label, now, wantNow)
	}
	if pos < len(ref) && ref[pos].at < cfg.At {
		t.Errorf("%s: seek stopped at %d, before the target, with an event pending at %d", label, now, ref[pos].at)
	}
	if now > cfg.At {
		t.Errorf("%s: seek overshot the target to %d", label, now)
	}
	want := ref[pos:min(pos+cfg.Steps, len(ref))]
	if len(stepped) != len(want) {
		t.Fatalf("%s: stepped %d events, the run had %d left after the seek (want %d)", label, len(stepped), len(ref)-pos, len(want))
	}
	for i := range want {
		if stepped[i] != want[i].line {
			t.Fatalf("%s: stepped event %d\n got  %s\n want %s", label, i, stepped[i], want[i].line)
		}
	}
	if drained := strings.Contains(out, "# queue drained after"); drained != (len(want) < cfg.Steps) {
		t.Errorf("%s: queue-drained line present %v, want %v", label, drained, len(want) < cfg.Steps)
	}
}
