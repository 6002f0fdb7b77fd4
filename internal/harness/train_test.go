package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// TestTrainGoldenStepTimes pins the FSDP step time of both collective
// pairings at the canonical scale (16 ranks, 6 layers, 512 KiB shards,
// 150 µs compute/layer) — the workload-layer equivalent of the registry's
// golden durations. Any change to event ordering, the workload engine's
// issue order, or the collective stacks moves these.
func TestTrainGoldenStepTimes(t *testing.T) {
	if testing.Short() {
		t.Skip("golden step times need the full-size FSDP step")
	}
	grid := sweep.Grid{Workloads: []string{"fsdp-ring", "fsdp-inc"}, Nodes: []int{16}, MsgBytes: []int{512 << 10}, Seed: 21}
	recs := runSweep(t, grid.Expand(), 0, TrainKernel(Env{}, TrainConfig{}), nil)
	want := map[string]int64{ // ns
		"fsdp-ring": 5449328,
		"fsdp-inc":  2898262,
	}
	for _, r := range recs {
		ns := int64(r.Metric("duration_us")*1000 + 0.5)
		if ns != want[r.Spec.Workload] {
			t.Errorf("%s step = %d ns, want golden %d", r.Spec.Workload, ns, want[r.Spec.Workload])
		}
		if r.Workload != r.Spec.Workload {
			t.Errorf("record workload metadata %q != spec %q", r.Workload, r.Spec.Workload)
		}
		if r.OverlapFrac <= 0 || r.OverlapFrac >= 1 {
			t.Errorf("%s overlap = %v, want in (0,1)", r.Spec.Workload, r.OverlapFrac)
		}
	}
	// The paper's application-level claim, at the workload layer: the
	// {mcast AG, inc RS} pairing beats {ring, ring} by ~the Appendix B
	// bound (1.88x at P=16).
	speedup := recs[0].Metric("duration_us") / recs[1].Metric("duration_us")
	if speedup < 1.5 || speedup > 2 {
		t.Errorf("inc-pair speedup = %.2f, want ~1.88", speedup)
	}
}

// TestTrainSweepByteIdenticalAcrossWorkers checks the workload sweep keeps
// the engine's determinism contract, scenario composition included.
func TestTrainSweepByteIdenticalAcrossWorkers(t *testing.T) {
	grid := sweep.Grid{Workloads: []string{"fsdp-inc", "dfs-replica"}, Nodes: []int{8}, MsgBytes: []int{64 << 10},
		Scenarios: []string{"quiet", "tenant-50load"}, Seed: 9}
	cfg := TrainConfig{Layers: 2}
	var blobs [][]byte
	for _, workers := range []int{1, 4} {
		blobs = append(blobs, encodeReport(t, runSweep(t, grid.Expand(), workers, TrainKernel(Env{}, cfg), AnnotateSlowdown)))
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatal("train sweep JSON differs between -workers 1 and 4")
	}
}

// TestTrainScenarioSlowdown checks a perturbation scenario composed onto
// the live training step costs time relative to the quiet sibling.
func TestTrainScenarioSlowdown(t *testing.T) {
	grid := sweep.Grid{Workloads: []string{"fsdp-inc"}, Nodes: []int{8}, MsgBytes: []int{64 << 10},
		Scenarios: []string{"quiet", "flap-spine"}, Seed: 9}
	recs := runSweep(t, grid.Expand(), 0, TrainKernel(Env{}, TrainConfig{Layers: 2}), AnnotateSlowdown)
	var quiet, flap float64
	for _, r := range recs {
		switch r.Spec.Scenario {
		case "quiet":
			quiet = r.Metric("slowdown_vs_quiet")
		case "flap-spine":
			flap = r.Metric("slowdown_vs_quiet")
		}
	}
	if quiet != 1 {
		t.Fatalf("quiet slowdown = %v, want 1", quiet)
	}
	if flap <= 1 {
		t.Fatalf("flap-spine slowdown = %v, want > 1", flap)
	}
}

// TestTrainTraceTimeline checks the Figure-9 trace surface: a multicast
// workload records protocol phases; the traced run is independent of the
// sweep.
func TestTrainTraceTimeline(t *testing.T) {
	spec := sweep.Grid{Workloads: []string{"fsdp-inc"}, Nodes: []int{4}, MsgBytes: []int{16 << 10}, Seed: 3}.Expand()[0]
	bundle, err := TrainTrace(Env{}, spec, TrainConfig{Layers: 1})
	if err != nil {
		t.Fatal(err)
	}
	timeline := bundle.Timeline()
	for _, phase := range []string{"dispatch", "barrier", "done"} {
		if !strings.Contains(timeline, phase) {
			t.Fatalf("timeline missing %q:\n%.400s", phase, timeline)
		}
	}
	if bundle.Snap == nil || len(bundle.Snap.Spans) == 0 {
		t.Fatal("traced bundle carries no workload spans")
	}
}

// TestCollTraceTimeline checks the OSU-side trace helper for both a traced
// multicast run and the (no events) P2P fallback.
func TestCollTraceTimeline(t *testing.T) {
	s := sweep.Spec{Algorithm: "mcast-allgather", Nodes: 4, MsgBytes: 16 << 10, Seed: 5}
	bundle, err := CollTrace(Env{}, s, 56)
	if err != nil {
		t.Fatal(err)
	}
	if timeline := bundle.Timeline(); !strings.Contains(timeline, "dispatch") {
		t.Fatalf("mcast timeline missing dispatch:\n%.200s", timeline)
	}
	s.Algorithm = "ring-allgather"
	bundle, err = CollTrace(Env{}, s, 56)
	if err != nil {
		t.Fatal(err)
	}
	if timeline := bundle.Timeline(); !strings.Contains(timeline, "no events") {
		t.Fatalf("ring timeline = %q, want (no events)", timeline)
	}
}
