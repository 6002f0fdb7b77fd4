package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// The sharing contract: a point run on a shared, forked stack produces the
// Record a fresh build of that point would — byte-identically, at every
// worker count, with telemetry on or off. The reference is
// not a second code path but the same executor on a one-spec sweep: a key
// that occurs once is built, run, and never captured. These tests are the
// harness-level half of the fork property (the engine-level half lives in
// internal/sim): they run real sweeps both ways and diff the
// JSON-serialized records, which covers every metric and the embedded
// Results, plus the canonical metrics.json bytes of the telemetry
// snapshots.

// recordsJSON canonicalizes records for comparison.
func recordsJSON(t *testing.T, recs []sweep.Record) string {
	t.Helper()
	b, err := json.MarshalIndent(recs, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// metricsDoc canonicalizes the records' telemetry into the metrics.json
// byte form `repro run` writes.
func metricsDoc(recs []sweep.Record) []byte {
	doc := telemetry.Document{Name: "share-test"}
	for i := range recs {
		if recs[i].Telemetry == nil {
			continue
		}
		doc.Points = append(doc.Points, telemetry.Point{
			Key:     recs[i].Spec.Key(),
			Metrics: recs[i].Telemetry.Metrics,
		})
	}
	return doc.Encode()
}

func diffRecords(t *testing.T, label string, want, got []sweep.Record) {
	t.Helper()
	if wj, gj := recordsJSON(t, want), recordsJSON(t, got); wj != gj {
		t.Errorf("%s: records diverge from the reference\nwant: %.2000s\ngot:  %.2000s", label, wj, gj)
	}
	if wm, gm := metricsDoc(want), metricsDoc(got); !bytes.Equal(wm, gm) {
		t.Errorf("%s: metrics.json diverges from the reference\nwant: %.1500s\ngot:  %.1500s", label, wm, gm)
	}
}

// checkShared runs specs shared at -workers 1 and 3 and requires the
// records of one-spec sweeps, with telemetry off and on. Registries and
// samplers are part of the forked state, so the per-record metric
// snapshots must also rewind byte-identically.
func checkShared(t *testing.T, specs []sweep.Spec, kernel func(Env) sweep.Kernel) {
	for _, tel := range []bool{false, true} {
		env := Env{Telemetry: telemetry.Config{Enabled: tel}}
		t.Run(fmt.Sprintf("telemetry=%v", tel), func(t *testing.T) {
			t.Parallel()
			var want []sweep.Record
			for _, s := range specs {
				rec, err := sweep.Run([]sweep.Spec{s}, 1, kernel(env), true)
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				want = append(want, rec...)
			}
			for _, workers := range []int{1, 3} {
				got, err := sweep.Run(specs, workers, kernel(env), true)
				if err != nil {
					t.Fatalf("workers=%d shared: %v", workers, err)
				}
				diffRecords(t, fmt.Sprintf("workers=%d", workers), want, got)
			}
		})
	}
}

// TestWarmResilienceByteIdentical shares one testbed stack across two
// perturbation scenarios next to the quiet anchor, whose partition class
// occurs once and so runs unshared.
func TestWarmResilienceByteIdentical(t *testing.T) {
	grid := ResilienceGrid([]string{"mcast-allgather"},
		[]string{"quiet", "flap-spine", "tenant-50load"}, 16, 4096, 7)
	checkShared(t, grid.Expand(), ResilienceKernel)
}

// TestWarmResilienceTelemetry pins the shape the telemetry gate gives the
// chaos keys: with a registry attached nothing partitions, so the quiet
// anchor shares the perturbed points' stack; without one it stands alone.
func TestWarmResilienceTelemetry(t *testing.T) {
	specs := ResilienceGrid([]string{"mcast-allgather"},
		[]string{"quiet", "flap-spine"}, 16, 4096, 7).Expand()
	on := ResilienceKernel(Env{Telemetry: telemetry.Config{Enabled: true}})
	if on.Key(specs[0]) != on.Key(specs[1]) {
		t.Error("telemetry on: quiet and perturbed points build the same stack but key differently")
	}
	off := ResilienceKernel(Env{})
	if off.Key(specs[0]) == off.Key(specs[1]) {
		t.Error("telemetry off: the partitioned quiet anchor shares a key with a confined point")
	}
}

// TestWarmOSUByteIdentical shares one stack across a message-size sweep
// (the OSU key drops the size axis).
func TestWarmOSUByteIdentical(t *testing.T) {
	cfg := OSUConfig{Iters: 3, Warmup: 1, LinkGbps: 56}
	grid := sweep.Grid{
		Algorithms: []string{"mcast-allgather"},
		Nodes:      []int{8},
		MsgBytes:   []int{1024, 4096, 16384},
		Seed:       3,
	}
	checkShared(t, grid.Expand(), func(env Env) sweep.Kernel { return OSUKernel(env, cfg) })
}

// TestWarmTrainByteIdentical forks one workload stack across scenarios.
func TestWarmTrainByteIdentical(t *testing.T) {
	grid := TrainGrid([]string{"fsdp-inc"}, []int{4}, []int{64 << 10},
		[]string{"quiet", "flap-spine"}, 21)
	checkShared(t, grid.Expand(), func(env Env) sweep.Kernel { return TrainKernel(env, TrainConfig{}) })
}

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
