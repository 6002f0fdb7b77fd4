package harness

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sweep"
)

// acrossShards captures the same sweep under Env{Shards: 1}, 2 and 8 —
// concurrently: the shard count is a value each capture carries, not
// process state — and requires byte-identical JSON.
func acrossShards(t *testing.T, name string, capture func(*testing.T, Env) []sweep.Record) {
	base := encodeReport(t, capture(t, Env{Shards: 1}))
	for _, n := range []int{2, 8} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			t.Parallel()
			if got := encodeReport(t, capture(t, Env{Shards: n})); !bytes.Equal(base, got) {
				t.Fatalf("%s sweep JSON at -shards %d differs from serial", name, n)
			}
		})
	}
}

// TestSweepsByteIdenticalAcrossShards is the harness half of the golden
// byte-identity matrix: the resilience sweep (quiet + tenant goldens), the
// FSDP training step and the Appendix-B concurrent-pair sweep must produce
// byte-identical JSON at -shards 1, 2 and 8. The fabric stack runs
// confined to the primary shard, so any divergence means the sharded
// engine moved an event.
func TestSweepsByteIdenticalAcrossShards(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep matrix is not -short sized")
	}
	acrossShards(t, "matrix", func(t *testing.T, env Env) []sweep.Record {
		resil := runSweep(t,
			ResilienceGrid([]string{"mcast-allgather"}, []string{"quiet", "tenant-50load"}, 16, 1<<20, 3).Expand(),
			1, ResilienceKernel(env), AnnotateSlowdown)
		train := runSweep(t, TrainGrid([]string{"fsdp-ring"}, []int{8}, []int{64 << 10}, nil, 9).Expand(),
			1, TrainKernel(env, TrainConfig{Layers: 2}), nil)
		appb := runSweep(t, AppBSpecs([]int{8}, 1<<20), 0, AppBKernel(env), nil)
		return append(append(resil, train...), appb...)
	})
}

// TestScenarioInjectorsAcrossShards drives fault-injection scenarios
// (spine flapping and stragglers) through sharded engines, byte-comparing
// against serial. Run under -race this also exercises the sharded group's
// guard and delegation paths while injector timers rearm.
func TestScenarioInjectorsAcrossShards(t *testing.T) {
	grid := ResilienceGrid([]string{"ring-allgather"}, []string{"flap-spine", "straggler-1pct"}, 8, 64<<10, 5)
	acrossShards(t, "injector", func(t *testing.T, env Env) []sweep.Record {
		return runSweep(t, grid.Expand(), 1, ResilienceKernel(env), AnnotateSlowdown)
	})
}
