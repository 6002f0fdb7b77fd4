package harness

import (
	"strings"
	"testing"

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
	observed := Env{Telemetry: telemetry.Config{Enabled: true}}
	for _, i := range []int{0, 3} { // mcast-broadcast, mcast-allgather
		s := specs[i]
		if !strings.HasPrefix(s.Algorithm, "mcast-") {
			t.Fatalf("fig11Specs[%d] is %s, want a multicast point", i, s.Algorithm)
		}
		plain, err := CollKernel(Env{}, 0)(s)
		if err != nil {
			t.Fatal(err)
		}
		seen, err := CollKernel(observed, 0)(s)
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
