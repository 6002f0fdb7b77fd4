package harness

import (
	"strings"
	"testing"

	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// TestTelemetryLeavesResultsUnchanged: observing a point must not change
// what it computes. With telemetry on, the fabric sampler adds events of
// its own, but every rank's critical-path breakdown and the operation's
// duration must be the ones the unobserved run reports. The multicast
// Fig 11 points are the sensitive ones: ranks finish their barrier and
// start receiving multicast at the same instants, so a changed event order
// shifts time between BarrierTime and McastTime.
func TestTelemetryLeavesResultsUnchanged(t *testing.T) {
	specs := fig11Specs(188, 16384)
	observed := telemetry.Config{Enabled: true}
	for _, i := range []int{0, 3} { // mcast-broadcast, mcast-allgather
		s := specs[i]
		if !strings.HasPrefix(s.Algorithm, "mcast-") {
			t.Fatalf("fig11Specs[%d] is %s, want a multicast point", i, s.Algorithm)
		}
		plain, err := CollKernel(telemetry.Config{})(s)
		if err != nil {
			t.Fatal(err)
		}
		seen, err := CollKernel(observed)(s)
		if err != nil {
			t.Fatal(err)
		}
		if seen.Telemetry == nil {
			t.Fatalf("%s: the telemetry run collected no metrics", s.Algorithm)
		}
		if got, want := seen.Result.Duration(), plain.Result.Duration(); got != want {
			t.Errorf("%s: duration %v with telemetry, %v without", s.Algorithm, got, want)
		}
		if len(seen.Result.PerRank) != len(plain.Result.PerRank) {
			t.Fatalf("%s: %d ranks with telemetry, %d without", s.Algorithm, len(seen.Result.PerRank), len(plain.Result.PerRank))
		}
		differ := 0
		for i, rs := range plain.Result.PerRank {
			if seen.Result.PerRank[i] != rs {
				if differ == 0 {
					t.Errorf("%s: rank %d is %+v with telemetry, %+v without", s.Algorithm, i, seen.Result.PerRank[i], rs)
				}
				differ++
			}
		}
		if differ != 0 {
			t.Errorf("%s: %d of %d ranks' results change with telemetry on", s.Algorithm, differ, len(plain.Result.PerRank))
		}
	}
}

// TestEveryCommIsInstrumented: with telemetry on, a point records core
// metrics for every multicast comm and coll metrics for every baseline
// comm, whichever kernel built the stack — the registry is attached once,
// to the point's cluster, and every layer reads it from there.
func TestEveryCommIsInstrumented(t *testing.T) {
	const phaseDone = "core/phase_total{phase=done}"
	ops := func(kinds ...string) []string {
		keys := make([]string, len(kinds))
		for i, k := range kinds {
			keys[i] = "coll/ops_total{kind=" + k + "}"
		}
		return keys
	}
	op, train, pair := CollKernel(on), TrainKernel(on, 1), PairKernel(on)
	for _, tc := range []struct {
		kernel sweep.Func
		spec   sweep.Spec
		want   []string
	}{
		{op, sweep.Spec{Algorithm: "ring-allgather"}, ops("ring-allgather")},
		{op, sweep.Spec{Algorithm: "mcast-allgather"}, []string{phaseDone}},
		{train, sweep.Spec{Workload: "fsdp-ring"}, ops("ring-allgather", "ring-reduce-scatter")},
		{train, sweep.Spec{Workload: "fsdp-inc"}, append(ops("inc-reduce-scatter"), phaseDone)},
		{pair, sweep.Spec{Algorithm: "ring-pair"}, ops("ring-allgather", "ring-reduce-scatter")},
		{pair, sweep.Spec{Algorithm: "inc-pair"}, append(ops("inc-reduce-scatter"), phaseDone)},
	} {
		s := tc.spec
		s.Nodes, s.MsgBytes, s.Seed = 4, 16<<10, 1
		name := s.Algorithm + s.Workload
		rec, err := tc.kernel(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := map[string]uint64{}
		for _, m := range rec.Telemetry.Metrics {
			got[m.Key] = m.Value
		}
		for _, key := range tc.want {
			if got[key] == 0 {
				t.Errorf("%s: no %s recorded", name, key)
			}
		}
		if got[phaseDone] == 0 && len(rec.Telemetry.Events) != 0 {
			t.Errorf("%s: %d phase events without a multicast comm", name, len(rec.Telemetry.Events))
		}
	}
}
