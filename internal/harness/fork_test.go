package harness

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// The mid-run fork property: snapshot the full simulation state after a
// prefix of the run, let the original timeline run to completion (dirtying
// the event pool and every model object far past the fork point), then
// rewind and re-drive the continuation — the replayed run must produce the
// Record a straight-through run produces, byte-identically, at multiple
// fork points. This is what makes `repro
// replay` an exact debugger rather than an approximation.

// forkedResilienceRecord runs one quiet resilience point with a mid-run
// rewind at `prefix` of virtual time, through the kernel's own start /
// drive / record steps.
func forkedResilienceRecord(t *testing.T, env Env, s sweep.Spec, prefix sim.Time) sweep.Record {
	t.Helper()
	pt, err := env.buildColl(s, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s = pt.spec
	run, err := pt.start(s)
	if err != nil {
		t.Fatal(err)
	}
	eng := pt.f.Engine()
	eng.RunFor(prefix)
	if run.res != nil {
		t.Fatalf("prefix %v ran past completion; pick an earlier fork point", prefix)
	}
	fork := captureFork(eng, pt.roots()...)
	done := func() bool { return run.res != nil }

	// Original timeline to completion: recycles the recorded events and
	// mutates every model object past the fork point.
	if !drive(pt.f, run.act, done) {
		t.Fatalf("%s did not complete", s.Algorithm)
	}

	// Rewind and replay the continuation. The result slot lives in the
	// completion closure, which the snapshot cannot see.
	fork.rewind()
	run.res = nil
	if !drive(pt.f, run.act, done) {
		t.Fatalf("%s did not complete after rewind", s.Algorithm)
	}
	return run.record(pt, s)
}

// quietKernelRecord is the straight-through reference: the resilience
// kernel's build → run on the same spec.
func quietKernelRecord(t *testing.T, env Env, s sweep.Spec) sweep.Record {
	t.Helper()
	recs, err := sweep.Run([]sweep.Spec{s}, 1, ResilienceKernel(env), false)
	if err != nil {
		t.Fatal(err)
	}
	return recs[0]
}

// serialLeg names the single-engine subtest. The name dates from when the
// fork tests also ran on a multi-shard engine group; it is kept so the
// subtest's ID stays stable.
const serialLeg = "shards=1"

// TestMidRunForkByteIdentical forks after two different prefixes and
// requires the replayed continuation's Record to
// match a straight build → run byte for byte. The ring row forks between RC
// rounds: the capture holds unicast packets in flight and, from the rounds
// already acknowledged, on the fabric's free lists, and the original timeline
// recycles both before the rewind.
func TestMidRunForkByteIdentical(t *testing.T) {
	rows := []struct {
		algorithm string
		prefixes  []sim.Time // both quiet points last ~35µs of virtual time: fork early and late
	}{
		{"mcast-allgather", []sim.Time{5 * sim.Microsecond, 20 * sim.Microsecond}},
		{"ring-allgather", []sim.Time{7 * sim.Microsecond, 33 * sim.Microsecond}},
	}
	t.Run(serialLeg, func(t *testing.T) {
		for _, row := range rows {
			s := sweep.Spec{Algorithm: row.algorithm, Scenario: "quiet",
				Nodes: 16, MsgBytes: 4096, Seed: 7}
			want := quietKernelRecord(t, Env{}, s)
			for _, prefix := range row.prefixes {
				forked := forkedResilienceRecord(t, Env{}, s, prefix)
				diffRecords(t, row.algorithm+" mid-run fork", []sweep.Record{want}, []sweep.Record{forked})
			}
		}
	})
}

// TestMidRunForkTelemetry repeats the property with the telemetry registry
// enabled: the registry's counters, gauges and sample streams are part of
// the rewound state, so the canonical metrics.json bytes must be identical
// too (diffRecords compares them).
func TestMidRunForkTelemetry(t *testing.T) {
	s := sweep.Spec{Algorithm: "mcast-allgather", Scenario: "quiet",
		Nodes: 16, MsgBytes: 4096, Seed: 7}
	env := Env{Telemetry: telemetry.Config{Enabled: true}}
	t.Run(serialLeg, func(t *testing.T) {
		want := quietKernelRecord(t, env, s)
		forked := forkedResilienceRecord(t, env, s, 10*sim.Microsecond)
		diffRecords(t, "mid-run fork + telemetry", []sweep.Record{want}, []sweep.Record{forked})
	})
}
