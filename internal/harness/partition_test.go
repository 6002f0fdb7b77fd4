package harness

import (
	"testing"

	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// TestPartitionGate pins the one partition gate's decisions on the built
// point: the quiet multicast Allgather runs the keyed pipeline, a
// perturbed or telemetry-observed or jittered point runs confined, and so
// does an algorithm that is not partition-safe.
func TestPartitionGate(t *testing.T) {
	tel := Env{Telemetry: telemetry.Config{Enabled: true}}
	cases := []struct {
		name           string
		env            Env
		algo, scenario string
		jitterUS       int
		want           bool
	}{
		{"quiet mcast", Env{}, "mcast-allgather", "quiet", 0, true},
		{"no scenario axis", Env{}, "mcast-allgather", "", 0, true},
		{"tenant-50load", Env{}, "mcast-allgather", "tenant-50load", 0, false},
		{"telemetry on", tel, "mcast-allgather", "quiet", 0, false},
		{"jittered", Env{}, "mcast-allgather", "", 3, false},
		{"not partition-safe", Env{}, "knomial-broadcast", "quiet", 0, false},
	}
	for _, c := range cases {
		s := sweep.Spec{Algorithm: c.algo, Scenario: c.scenario, Nodes: 8, MsgBytes: 4096, Seed: 1}
		pt, err := c.env.buildColl(s, 0, c.jitterUS)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if pt.partitioned != c.want || pt.f.Partitioned() != c.want {
			t.Errorf("%s: partitioned = %v (fabric %v), want %v", c.name, pt.partitioned, pt.f.Partitioned(), c.want)
		}
	}
}
