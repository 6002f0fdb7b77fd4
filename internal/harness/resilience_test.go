package harness

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/sweep"
)

// TestResilienceSweepByteIdentical is the acceptance check for the
// scenario axis: the same algorithm × scenario grid produces byte-identical
// JSON at any worker count. It stays in the short suite so CI's -race step
// exercises the scenario injectors on the worker pool.
func TestResilienceSweepByteIdentical(t *testing.T) {
	g := sweep.Grid{
		Algorithms: []string{"mcast-allgather", "ring-allgather"},
		Scenarios:  []string{"quiet", "flap-spine", "tenant-50load"},
		Nodes:      []int{16},
		MsgBytes:   []int{64 << 10},
		Seed:       42,
	}
	run := func(workers int) []byte {
		return encodeReport(t, runSweep(t, g.Expand(), workers, ResilienceKernel(Env{}), AnnotateSlowdown))
	}
	a, b := run(1), run(6)
	if !bytes.Equal(a, b) {
		t.Fatal("resilience sweep JSON differs between 1 and 6 workers")
	}
}

// TestResilienceQuietMatchesCollKernel checks the identity path at kernel
// altitude: the quiet-scenario kernel must produce the exact Result (byte
// for byte) and duration the scenario-free collective kernel produces for
// the same spec and seed.
func TestResilienceQuietMatchesCollKernel(t *testing.T) {
	spec := sweep.Spec{Algorithm: "mcast-allgather", Nodes: 16, MsgBytes: 64 << 10, Seed: 1234}
	bases, err := sweep.Run([]sweep.Spec{spec}, 1, CollKernel(Env{}))
	if err != nil {
		t.Fatal(err)
	}
	spec.Scenario = "quiet"
	quiets, err := sweep.Run([]sweep.Spec{spec}, 1, ResilienceKernel(Env{}))
	if err != nil {
		t.Fatal(err)
	}
	base, quiet := bases[0], quiets[0]
	bj, _ := json.Marshal(base.Result)
	qj, _ := json.Marshal(quiet.Result)
	if !bytes.Equal(bj, qj) {
		t.Fatalf("quiet kernel result differs from CollKernel:\n%s\n---\n%s", bj, qj)
	}
	if b, q := base.Metric("duration_us"), quiet.Metric("duration_us"); b != q {
		t.Fatalf("quiet duration %v differs from no-scenario %v", q, b)
	}
	for _, m := range []string{"drops", "perturbs", "restores", "bg_mbytes"} {
		if v := quiet.Metric(m); v != 0 {
			t.Fatalf("quiet kernel reported %s = %v, want 0", m, v)
		}
	}
}

// TestAnnotateSlowdown pins the slowdown metric's semantics: quiet anchors
// at exactly 1, perturbed siblings are duration ratios, and points without
// a quiet sibling stay unannotated.
func TestAnnotateSlowdown(t *testing.T) {
	mk := func(algo, sc string, us float64) sweep.Record {
		return sweep.Record{
			Spec:    sweep.Spec{Algorithm: algo, Nodes: 4, MsgBytes: 1024, Scenario: sc},
			Metrics: map[string]float64{"duration_us": us},
		}
	}
	recs := []sweep.Record{
		mk("a", "quiet", 100),
		mk("a", "flap-spine", 250),
		mk("b", "flap-spine", 999), // no quiet sibling
	}
	AnnotateSlowdown(recs)
	if got := recs[0].Metric("slowdown_vs_quiet"); got != 1 {
		t.Fatalf("quiet slowdown = %v, want 1", got)
	}
	if got := recs[1].Metric("slowdown_vs_quiet"); got != 2.5 {
		t.Fatalf("flap slowdown = %v, want 2.5", got)
	}
	if _, ok := recs[2].Metrics["slowdown_vs_quiet"]; ok {
		t.Fatal("record without a quiet sibling was annotated")
	}
}
