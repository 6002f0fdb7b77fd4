package harness

import (
	"math"
	"testing"

	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/verbs"
)

func TestRxBenchUDSingleThreadMatchesModel(t *testing.T) {
	r := RunRxBench(RxBenchConfig{Transport: verbs.UD, Workers: 1, ChunkBytes: 4096, TotalBytes: 8 << 20})
	// One DPA thread at 1084 cycles/CQE and 1.8 GHz: 1.66M chunks/s.
	want := 1.8e9 / 1084
	if math.Abs(r.ChunkRate-want)/want > 0.03 {
		t.Fatalf("UD single-thread chunk rate %.3g, want %.3g", r.ChunkRate, want)
	}
}

func TestRxBenchUCFasterThanUD(t *testing.T) {
	ud := RunRxBench(RxBenchConfig{Transport: verbs.UD, Workers: 1, ChunkBytes: 4096, TotalBytes: 4 << 20})
	uc := RunRxBench(RxBenchConfig{Transport: verbs.UC, Workers: 1, ChunkBytes: 4096, TotalBytes: 4 << 20})
	if uc.GiBps <= ud.GiBps {
		t.Fatalf("UC (%v) not faster than UD (%v) single-thread", uc.GiBps, ud.GiBps)
	}
	// Table I ratio: 1084/598 ≈ 1.8x.
	ratio := uc.GiBps / ud.GiBps
	if ratio < 1.5 || ratio > 2.2 {
		t.Fatalf("UC/UD ratio %.2f, want ≈1.8", ratio)
	}
}

func TestRxBenchThreadScalingShape(t *testing.T) {
	// The headline offloading result: UC saturates the link by 4 threads,
	// UD between 8 and 16 (Figures 13/14).
	at := func(tr verbs.Transport, w int) float64 {
		return RunRxBench(RxBenchConfig{Transport: tr, Workers: w, ChunkBytes: 4096, TotalBytes: 8 << 20}).LinkShare
	}
	if s := at(verbs.UC, 4); s < 0.97 {
		t.Errorf("UC at 4 threads reaches %.2f of link, want ~1.0", s)
	}
	if s := at(verbs.UD, 4); s > 0.97 {
		t.Errorf("UD at 4 threads already saturates (%.2f); paper needs 8-16", s)
	}
	if s := at(verbs.UD, 8); s < 0.95 {
		t.Errorf("UD at 8 threads reaches %.2f of link, want ~1.0", s)
	}
	// Monotone non-decreasing.
	prev := 0.0
	for _, w := range []int{1, 2, 4, 8, 16} {
		s := at(verbs.UD, w)
		if s+0.02 < prev {
			t.Fatalf("UD scaling regressed at %d threads: %.2f < %.2f", w, s, prev)
		}
		prev = s
	}
}

func TestRxBenchCPUBaselineBelowLink(t *testing.T) {
	r := RunRxBench(RxBenchConfig{Transport: verbs.UD, Workers: 1, ChunkBytes: 4096, TotalBytes: 8 << 20, OnCPU: true})
	// Figure 5: a single CPU core sustains only ~1/2-2/3 of 200 Gbit/s.
	if r.LinkShare < 0.40 || r.LinkShare > 0.75 {
		t.Fatalf("CPU single-core link share %.2f, want within [0.40, 0.75]", r.LinkShare)
	}
}

// bound is one asserted quantity of a paper claim: got must lie in
// [min, max]. A strict "a > b" is spelled got: a - b, min: above(0).
type bound struct {
	what     string
	got      float64
	min, max float64
}

func above(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }

var inf = math.Inf(1)

// TestPaperClaims pins the paper's evaluation claims on the Records of the
// same grids and kernels manifest/compile.go wires behind `repro`: each row
// names the figure, its specs + kernel (+ post-annotation), and the bounds
// on the metrics read off the records. at(metric, want) reads the metric
// of the one record whose spec matches every non-zero axis of want.
func TestPaperClaims(t *testing.T) {
	type lookup func(metric string, want sweep.Spec) float64
	claims := []struct {
		name   string
		long   string // reason to skip under -short
		specs  []sweep.Spec
		kernel sweep.Func
		post   func([]sweep.Record)
		bounds func(at lookup) []bound
	}{
		{name: "Fig5DPAWinsAtLargeMessages",
			specs: sweep.Concat(
				sweep.Grid{Transports: []string{"cpu-ud"}, Threads: []int{1}, ChunkSizes: []int{4096}, MsgBytes: []int{1 << 20}, Seed: 5}.Expand(),
				sweep.Grid{Transports: []string{"ud"}, Threads: []int{16}, ChunkSizes: []int{4096}, MsgBytes: []int{1 << 20}, Seed: 55}.Expand()),
			kernel: RxKernel(telemetry.Config{}),
			bounds: func(at lookup) []bound {
				cpu, dpa := sweep.Spec{Transport: "cpu-ud"}, sweep.Spec{Transport: "ud"}
				return []bound{
					{"DPA core Gbit/s above CPU core", at("gbps", dpa) - at("gbps", cpu), above(0), inf},
					{"DPA core share of peak goodput", at("gbps", dpa) / (at("link_gbps", cpu) * 4096 / 4160), 0.9, inf},
				}
			}},
		{name: "Table1MatchesPaper",
			specs: sweep.Grid{Transports: []string{"uc", "ud"}, Threads: []int{1},
				ChunkSizes: []int{4096}, MsgBytes: []int{8 << 20}, Seed: 1}.Expand(),
			kernel: RxKernel(telemetry.Config{}),
			bounds: func(at lookup) []bound {
				uc, ud := sweep.Spec{Transport: "uc"}, sweep.Spec{Transport: "ud"}
				return []bound{
					{"UC instructions/CQE", at("instr_cqe", uc), 66, 66},
					{"UC cycles/CQE", at("cycles_cqe", uc), 598, 598},
					{"UC GiB/s (paper 11.9)", at("gibps", uc), 11.9 - 1.5, 11.9 + 1.5},
					{"UD instructions/CQE", at("instr_cqe", ud), 113, 113},
					{"UD cycles/CQE", at("cycles_cqe", ud), 1084, 1084},
					{"UD GiB/s (paper 5.2)", at("gibps", ud), 5.2 - 1.5, 5.2 + 1.5},
				}
			}},
		{name: "Fig15LargerChunksNeedFewerThreads",
			specs: sweep.Grid{Transports: []string{"uc"}, Threads: []int{1},
				ChunkSizes: []int{4 << 10, 64 << 10}, MsgBytes: []int{8 << 20}, Seed: 15}.Expand(),
			kernel: RxKernel(telemetry.Config{}),
			bounds: func(at lookup) []bound {
				small, large := at("link_share", sweep.Spec{ChunkSize: 4 << 10}), at("link_share", sweep.Spec{ChunkSize: 64 << 10})
				return []bound{
					{"64 KiB over 4 KiB link share at 1 thread", large - small, above(0), inf},
					{"64 KiB link share at 1 thread", large, 0.95, inf},
				}
			}},
		{name: "Fig16Reaches16TbitWithin128Threads", long: "128-thread Tbit/s scaling sweep (several seconds)",
			specs: sweep.Grid{Transports: []string{"ud", "uc"}, Threads: []int{64, 128},
				ChunkSizes: []int{64}, Seed: 16}.Expand(),
			kernel: ChunkRateKernel(telemetry.Config{}),
			bounds: func(at lookup) []bound {
				return []bound{
					{"UD share of the 1.6 Tbit/s chunk rate at 128 threads", at("link_share", sweep.Spec{Transport: "ud", Threads: 128}), 1, inf},
					{"UC share of the 1.6 Tbit/s chunk rate at 128 threads", at("link_share", sweep.Spec{Transport: "uc", Threads: 128}), 1, inf},
				}
			}},
		{name: "Fig10McastDominatesAtScale",
			specs: sweep.Grid{Algorithms: []string{"mcast-allgather"},
				Nodes: []int{16}, MsgBytes: []int{256 << 10}, Seed: 10}.Expand(),
			kernel: CollKernel(telemetry.Config{}),
			bounds: func(at lookup) []bound {
				pt := sweep.Spec{Nodes: 16}
				return []bound{
					{"multicast fraction at 16 nodes / 256 KiB (paper: 99%)", at("mcast_frac", pt), 0.90, inf},
					{"sum of phase fractions", at("barrier_frac", pt) + at("mcast_frac", pt) + at("final_frac", pt), 0, 1.01},
				}
			}},
		{name: "Fig10SyncMattersMoreAtSmallSizes",
			// The synchronization share (RNR barrier + final handshake)
			// shrinks as the message grows.
			specs: sweep.Grid{Algorithms: []string{"mcast-allgather"},
				Nodes: []int{4}, MsgBytes: []int{4096, 1 << 20}, Seed: 10}.Expand(),
			kernel: CollKernel(telemetry.Config{}),
			bounds: func(at lookup) []bound {
				sync := func(size int) float64 {
					pt := sweep.Spec{MsgBytes: size}
					return at("barrier_frac", pt) + at("final_frac", pt)
				}
				return []bound{{"sync share at 4 KiB over share at 1 MiB", sync(4096) / sync(1<<20), 3, inf}}
			}},
		{name: "Fig11ShapesAtModestScale",
			specs: fig11Specs(16, 256<<10), kernel: CollKernel(telemetry.Config{}),
			bounds: func(at lookup) []bound {
				gibps := func(algo string) float64 { return at("gibps", sweep.Spec{Algorithm: algo}) }
				return []bound{
					{"mcast broadcast GiB/s above k-nomial", gibps("mcast-broadcast") - gibps("knomial-broadcast"), above(0), inf},
					{"mcast broadcast GiB/s above binary tree", gibps("mcast-broadcast") - gibps("binary-broadcast"), above(0), inf},
					// The paper reports parity at FSDP sizes.
					{"mcast/ring allgather ratio", gibps("mcast-allgather") / gibps("ring-allgather"), 0.5, 3.0},
				}
			}},
		{name: "Fig12SavingsShape",
			specs: sweep.Grid{Algorithms: []string{"mcast-broadcast", "knomial-broadcast", "mcast-allgather", "ring-allgather"},
				Nodes: []int{32}, MsgBytes: []int{64 << 10}, Seed: 12}.Expand(),
			kernel: TrafficKernel(telemetry.Config{}), post: AnnotateSavings,
			bounds: func(at lookup) []bound {
				return []bound{
					{"broadcast traffic savings (paper: 1.5x)", at("savings_vs_p2p", sweep.Spec{Algorithm: "mcast-broadcast"}), 1.3, inf},
					{"allgather traffic savings (paper: 2x)", at("savings_vs_p2p", sweep.Spec{Algorithm: "mcast-allgather"}), 1.6, 2.4},
				}
			}},
		{name: "AppBSpeedupIncreasesWithP",
			specs:  sweep.Grid{Algorithms: PairAlgorithms, Nodes: []int{2, 8}, MsgBytes: []int{512 << 10}, Seed: 21}.Expand(),
			kernel: PairKernel(telemetry.Config{}),
			bounds: func(at lookup) []bound {
				speedup := func(p int) float64 {
					return at("span_ns", sweep.Spec{Algorithm: "ring-pair", Nodes: p}) / at("span_ns", sweep.Spec{Algorithm: "inc-pair", Nodes: p})
				}
				return []bound{
					{"speedup at P=8 over P=2", speedup(8) - speedup(2), above(0), inf},
					{"speedup at P=8 (model 2 - 2/P: 1.75)", speedup(8), 1.3, inf},
				}
			}},
	}
	for _, c := range claims {
		t.Run(c.name, func(t *testing.T) {
			if c.long != "" && testing.Short() {
				t.Skip(c.long)
			}
			recs := runSweep(t, c.specs, 0, c.kernel, c.post)
			at := func(metric string, want sweep.Spec) float64 {
				t.Helper()
				var hits []sweep.Record
				for _, r := range recs {
					s := r.Spec
					if (want.Algorithm == "" || want.Algorithm == s.Algorithm) && (want.Transport == "" || want.Transport == s.Transport) &&
						(want.Nodes == 0 || want.Nodes == s.Nodes) && (want.MsgBytes == 0 || want.MsgBytes == s.MsgBytes) &&
						(want.Threads == 0 || want.Threads == s.Threads) && (want.ChunkSize == 0 || want.ChunkSize == s.ChunkSize) {
						hits = append(hits, r)
					}
				}
				if len(hits) != 1 {
					t.Fatalf("%d records match %s, want exactly 1", len(hits), want)
				}
				if _, ok := hits[0].Metrics[metric]; !ok {
					t.Fatalf("record %s has no metric %q", hits[0].Spec, metric)
				}
				return hits[0].Metric(metric)
			}
			for _, b := range c.bounds(at) {
				if !(b.got >= b.min && b.got <= b.max) {
					t.Errorf("%s = %.4g, want within [%.4g, %.4g]", b.what, b.got, b.min, b.max)
				}
			}
		})
	}
}

// fig11Specs is the point list of manifests/fig11.json at one node count
// and message size: the multicast collectives and their P2P baselines,
// then the chain broadcast with 16 KiB chunks under its own seed.
func fig11Specs(nodes, size int) []sweep.Spec {
	return sweep.Concat(
		sweep.Grid{Algorithms: []string{"mcast-broadcast", "knomial-broadcast", "binary-broadcast", "mcast-allgather", "ring-allgather"},
			Nodes: []int{nodes}, MsgBytes: []int{size}, Seed: 11}.Expand(),
		sweep.Grid{Algorithms: []string{"chain-broadcast"},
			Nodes: []int{nodes}, MsgBytes: []int{size}, ChunkSizes: []int{16 << 10}, Seed: 112}.Expand())
}

func TestRxBenchInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid config did not panic")
		}
	}()
	RunRxBench(RxBenchConfig{Transport: verbs.UD, Workers: 0, ChunkBytes: 4096, TotalBytes: 1})
}
