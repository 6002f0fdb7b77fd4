package repro

// Ablation benchmarks for the design choices the paper calls out: the
// degree of packet parallelism (subgroups), multicast parallelism
// (chains), slow-path cost under increasing fabric loss, and dedicated vs
// arbitrated receive workers. Each reports the effect through
// b.ReportMetric so `go test -bench=Ablation` prints the whole study.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// runAG builds a fresh 16-rank system and times one Allgather.
func runAG(b *testing.B, fcfg fabric.Config, ccfg core.Config, n int) (*core.Result, *System) {
	b.Helper()
	sys, err := NewSystem(SystemConfig{Hosts: 16, HostsPerLeaf: 4, Fabric: fcfg, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	comm, err := sys.NewCommunicator(sys.Hosts(), ccfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := runAllgather(comm, n)
	if err != nil {
		b.Fatal(err)
	}
	return res, sys
}

// BenchmarkAblationSubgroups sweeps packet parallelism (§IV-C): one
// CPU receive worker cannot drain the link; more trees add workers.
func BenchmarkAblationSubgroups(b *testing.B) {
	for _, s := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("subgroups=%d", s), func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				res, _ := runAG(b, fabric.Config{},
					core.Config{Subgroups: s}, 1<<20)
				bw = res.AlgBandwidth() / (1 << 30)
			}
			b.ReportMetric(bw, "GiB/s")
		})
	}
}

// BenchmarkAblationChains sweeps multicast parallelism (Appendix A):
// more concurrent roots shorten the schedule until the receive path
// saturates.
func BenchmarkAblationChains(b *testing.B) {
	for _, m := range []int{1, 2, 4, 16} {
		b.Run(fmt.Sprintf("chains=%d", m), func(b *testing.B) {
			var dur sim.Time
			for i := 0; i < b.N; i++ {
				res, _ := runAG(b, fabric.Config{},
					core.Config{Chains: m, Subgroups: 4}, 1<<20)
				dur = res.Duration()
			}
			b.ReportMetric(dur.Micros(), "µs-op")
		})
	}
}

// BenchmarkAblationLossRate quantifies the slow-path cost as fabric loss
// grows from lossless to broken.
func BenchmarkAblationLossRate(b *testing.B) {
	for _, drop := range []float64{0, 1e-4, 1e-3, 1e-2} {
		b.Run(fmt.Sprintf("drop=%g", drop), func(b *testing.B) {
			var dur sim.Time
			var recovered int
			for i := 0; i < b.N; i++ {
				res, _ := runAG(b, fabric.Config{DropRate: drop},
					core.Config{CutoffAlpha: 100 * sim.Microsecond}, 1<<20)
				dur = res.Duration()
				recovered = res.MaxRecovered()
			}
			b.ReportMetric(dur.Micros(), "µs-op")
			b.ReportMetric(float64(recovered), "chunks-recovered")
		})
	}
}

// BenchmarkAblationArbitration compares dedicated receive workers against
// the §V-C shared arbiters when two communicators run concurrently.
func BenchmarkAblationArbitration(b *testing.B) {
	run := func(arbitrated bool) sim.Time {
		sys, err := NewSystem(SystemConfig{Hosts: 8, Topology: "star", Seed: 9})
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.Config{Subgroups: 2, ArbitratedRx: arbitrated}
		c1, err := sys.NewCommunicator(sys.Hosts(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		c2, err := sys.NewCommunicator(sys.Hosts(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := c1.StartAllgather(1<<20, nil); err != nil {
			b.Fatal(err)
		}
		if err := c2.StartAllgather(1<<20, nil); err != nil {
			b.Fatal(err)
		}
		return sys.Run()
	}
	for _, arb := range []bool{false, true} {
		name := "dedicated"
		if arb {
			name = "arbitrated"
		}
		b.Run(name, func(b *testing.B) {
			var t sim.Time
			for i := 0; i < b.N; i++ {
				t = run(arb)
			}
			b.ReportMetric(t.Micros(), "µs-pair")
		})
	}
}

// BenchmarkAblationBaselines times every Allgather algorithm on the same
// 16-rank system through the unified registry: the library-selection view
// of Figure 11.
func BenchmarkAblationBaselines(b *testing.B) {
	// The multicast protocol gets the paper's 4 parallel trees; the P2P
	// baselines run with library defaults.
	opts := map[string]AlgorithmOptions{
		"mcast-allgather": {Core: core.Config{Subgroups: 4}},
	}
	for _, name := range []string{"mcast-allgather", "ring-allgather", "linear-allgather", "rd-allgather", "bruck-allgather"} {
		b.Run(name, func(b *testing.B) {
			var dur sim.Time
			for i := 0; i < b.N; i++ {
				sys, err := NewSystem(SystemConfig{Hosts: 16, HostsPerLeaf: 4, Seed: 3})
				if err != nil {
					b.Fatal(err)
				}
				alg, err := NewAlgorithm(sys, name, opts[name])
				if err != nil {
					b.Fatal(err)
				}
				res, err := alg.Run(Op{Kind: Allgather, Bytes: 1 << 20})
				if err != nil {
					b.Fatal(err)
				}
				dur = res.Duration()
			}
			b.ReportMetric(dur.Micros(), "µs-op")
		})
	}
}

// BenchmarkParallelSimulations demonstrates that independent simulations
// scale across OS threads: the engine is single-threaded per instance, so
// throughput studies parallelize by running one simulation per goroutine.
func BenchmarkParallelSimulations(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	b.SetParallelism(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		seeds := make(chan uint64, workers)
		for s := 0; s < workers; s++ {
			seeds <- uint64(s + 1)
		}
		close(seeds)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for seed := range seeds {
					sys, err := NewSystem(SystemConfig{Hosts: 8, Topology: "star", Seed: seed})
					if err != nil {
						b.Error(err)
						return
					}
					comm, err := sys.NewCommunicator(sys.Hosts(), core.Config{})
					if err != nil {
						b.Error(err)
						return
					}
					if _, err := runAllgather(comm, 256<<10); err != nil {
						b.Error(err)
					}
				}
			}()
		}
		wg.Wait()
	}
	b.ReportMetric(float64(workers), "sims/iter")
}
