package repro

// The horizon gate: a long run on one warm instance must not keep more
// memory than a short one. Any per-operation state that only ever grows —
// a map never pruned, a free list never reused, a log appended per
// message — shows as a live heap that scales with the operation count.

import (
	"runtime"
	"testing"
)

// liveHeap returns the bytes still reachable after a full collection. The
// second cycle frees what the first only moved to the standard library's
// sync.Pool victim caches.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestLiveHeapFlatOverHorizon runs an RC ring Allgather on a quiet fabric
// and a multicast Allgather under a drop hotspot, n and then 8n operations
// on the same warm system, and requires the live heap after the 8n to be
// within 10% of the one after the n.
func TestLiveHeapFlatOverHorizon(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 9n operations per point")
	}
	const n, bytes = 8, 256 << 10
	for _, tc := range []struct{ alg, scenario string }{
		{"ring-allgather", "quiet"},
		{"mcast-allgather", "hotspot-drop"},
	} {
		t.Run(tc.alg+"/"+tc.scenario, func(t *testing.T) {
			sys := newTestSystem(t)
			sc, err := NewScenario(tc.scenario)
			if err != nil {
				t.Fatal(err)
			}
			sys.ApplyScenario(sc, 5)
			alg, err := NewAlgorithm(sys, tc.alg, AlgorithmOptions{})
			if err != nil {
				t.Fatal(err)
			}
			recovered := 0
			run := func(ops int) {
				for i := 0; i < ops; i++ {
					res, err := alg.Run(Op{Kind: Allgather, Bytes: bytes})
					if err != nil {
						t.Fatal(err)
					}
					recovered += res.MaxRecovered()
				}
			}
			run(n)
			short := liveHeap()
			run(8 * n)
			long := liveHeap()
			runtime.KeepAlive(alg)
			t.Logf("live heap after %d ops %d B, after %d more %d B; %d chunks recovered",
				n, short, 8*n, long, recovered)
			if tc.scenario != "quiet" && recovered == 0 {
				t.Fatal("the lossy point recovered no chunk: its slow path went unexercised")
			}
			if float64(long) > 1.1*float64(short) || float64(long) < 0.9*float64(short) {
				t.Fatalf("live heap moved from %d B to %d B over the horizon (more than 10%%)", short, long)
			}
		})
	}
}
