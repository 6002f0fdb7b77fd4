package harness

import (
	"math"
	"testing"

	"repro/internal/verbs"
)

func TestRxBenchUDSingleThreadMatchesModel(t *testing.T) {
	r := RunRxBench(Env{}, RxBenchConfig{Transport: verbs.UD, Workers: 1, ChunkBytes: 4096, TotalBytes: 8 << 20})
	// One DPA thread at 1084 cycles/CQE and 1.8 GHz: 1.66M chunks/s.
	want := 1.8e9 / 1084
	if math.Abs(r.ChunkRate-want)/want > 0.03 {
		t.Fatalf("UD single-thread chunk rate %.3g, want %.3g", r.ChunkRate, want)
	}
	if r.Chunks != 2048 {
		t.Fatalf("chunks = %d", r.Chunks)
	}
	if r.RNRDrops != 0 {
		t.Fatalf("bench dropped %d chunks", r.RNRDrops)
	}
}

func TestRxBenchUCFasterThanUD(t *testing.T) {
	ud := RunRxBench(Env{}, RxBenchConfig{Transport: verbs.UD, Workers: 1, ChunkBytes: 4096, TotalBytes: 4 << 20})
	uc := RunRxBench(Env{}, RxBenchConfig{Transport: verbs.UC, Workers: 1, ChunkBytes: 4096, TotalBytes: 4 << 20})
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
		return RunRxBench(Env{}, RxBenchConfig{Transport: tr, Workers: w, ChunkBytes: 4096, TotalBytes: 8 << 20}).LinkShare
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
	r := RunRxBench(Env{}, RxBenchConfig{Transport: verbs.UD, Workers: 1, ChunkBytes: 4096, TotalBytes: 8 << 20, OnCPU: true})
	// Figure 5: a single CPU core sustains only ~1/2-2/3 of 200 Gbit/s.
	if r.LinkShare < 0.40 || r.LinkShare > 0.75 {
		t.Fatalf("CPU single-core link share %.2f, want within [0.40, 0.75]", r.LinkShare)
	}
}

func TestFig5DPAWinsAtLargeMessages(t *testing.T) {
	pts := Fig5SingleCore([]int{1 << 20})
	p := pts[0]
	if p.DPAGbps <= p.CPUGbps {
		t.Fatalf("DPA core (%.1f) not above CPU core (%.1f)", p.DPAGbps, p.CPUGbps)
	}
	if p.DPAGbps < 0.9*p.LinkGbps*4096/4160 {
		t.Fatalf("DPA core does not reach peak: %.1f of %.1f", p.DPAGbps, p.LinkGbps)
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1SingleThread()
	if len(rows) != 2 {
		t.Fatal("want 2 rows")
	}
	for _, r := range rows {
		switch r.Datapath {
		case "UC":
			if r.InstructionsCQE != 66 || r.CyclesCQE != 598 {
				t.Fatalf("UC row: %+v", r)
			}
			if math.Abs(r.ThroughputGiBps-11.9) > 1.5 {
				t.Fatalf("UC throughput %.1f GiB/s, paper 11.9", r.ThroughputGiBps)
			}
		case "UD":
			if r.InstructionsCQE != 113 || r.CyclesCQE != 1084 {
				t.Fatalf("UD row: %+v", r)
			}
			if math.Abs(r.ThroughputGiBps-5.2) > 1.5 {
				t.Fatalf("UD throughput %.1f GiB/s, paper 5.2", r.ThroughputGiBps)
			}
		}
	}
}

func TestFig15LargerChunksNeedFewerThreads(t *testing.T) {
	pts := Fig15ChunkSize([]int{4 << 10, 64 << 10}, []int{1})
	var small, large float64
	for _, p := range pts {
		if p.ChunkBytes == 4<<10 {
			small = p.LinkShare
		} else {
			large = p.LinkShare
		}
	}
	if large <= small {
		t.Fatalf("64 KiB chunks (%.2f) not better than 4 KiB (%.2f) at 1 thread", large, small)
	}
	if large < 0.95 {
		t.Fatalf("64 KiB chunks at 1 thread reach %.2f of line rate, want ~1.0", large)
	}
}

func TestFig16Reaches16TbitWithin128Threads(t *testing.T) {
	if testing.Short() {
		t.Skip("128-thread Tbit/s scaling sweep (several seconds)")
	}
	pts := Fig16TbitScaling([]int{64, 128})
	reached := map[string]bool{}
	for _, p := range pts {
		if p.Threads == 128 && p.ChunkRate >= Tbit16Target {
			reached[p.Transport] = true
		}
	}
	if !reached["UD"] || !reached["UC"] {
		t.Fatalf("1.6 Tbit/s target not reached with 128 threads: %v", reached)
	}
}

func TestFig10McastDominatesAtScale(t *testing.T) {
	pts, err := Fig10Breakdown([]int{16}, []int{256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]
	if p.McastFrac < 0.90 {
		t.Fatalf("multicast fraction %.2f at 16 nodes / 256 KiB, want > 0.90 (paper: 99%%)", p.McastFrac)
	}
	if p.BarrierFrac+p.McastFrac+p.FinalFrac > 1.01 {
		t.Fatalf("fractions exceed 1: %+v", p)
	}
}

func TestFig10SyncMattersMoreAtSmallSizes(t *testing.T) {
	// The paper's Figure 10 point in relative form: the synchronization
	// share (RNR barrier + final handshake) shrinks as the message grows.
	pts, err := Fig10Breakdown([]int{4}, []int{4096, 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	small := pts[0].BarrierFrac + pts[0].FinalFrac
	large := pts[1].BarrierFrac + pts[1].FinalFrac
	if small < 3*large {
		t.Fatalf("sync share at 4 KiB (%.3f) not >> share at 1 MiB (%.3f)", small, large)
	}
}

func TestFig11ShapesAtModestScale(t *testing.T) {
	pts, err := Fig11Throughput(16, []int{256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	byAlgo := map[string]float64{}
	for _, p := range pts {
		byAlgo[p.Algo] = p.GiBps
	}
	if byAlgo["mcast-broadcast"] <= byAlgo["knomial-broadcast"] {
		t.Fatalf("mcast bcast (%.2f) not above knomial (%.2f)",
			byAlgo["mcast-broadcast"], byAlgo["knomial-broadcast"])
	}
	if byAlgo["mcast-broadcast"] <= byAlgo["binary-broadcast"] {
		t.Fatalf("mcast bcast (%.2f) not above binary tree (%.2f)",
			byAlgo["mcast-broadcast"], byAlgo["binary-broadcast"])
	}
	// Allgather: multicast within 2x of ring either way (the paper reports
	// parity at FSDP sizes).
	ratio := byAlgo["mcast-allgather"] / byAlgo["ring-allgather"]
	if ratio < 0.5 || ratio > 3.0 {
		t.Fatalf("mcast/ring allgather ratio %.2f out of range", ratio)
	}
}

func TestFig12SavingsShape(t *testing.T) {
	rows, err := Fig12Traffic(32, 64<<10, 2)
	if err != nil {
		t.Fatal(err)
	}
	var bcast, ag float64
	for _, r := range rows {
		if r.Algo == "mcast" {
			if r.Op == "broadcast" {
				bcast = r.Savings
			} else {
				ag = r.Savings
			}
		}
	}
	if bcast < 1.3 {
		t.Fatalf("broadcast traffic savings %.2f, want >= 1.3 (paper: 1.5x)", bcast)
	}
	if ag < 1.6 || ag > 2.4 {
		t.Fatalf("allgather traffic savings %.2f, want ≈2x", ag)
	}
}

func TestAppBSpeedupIncreasesWithP(t *testing.T) {
	pts, err := AppBConcurrent([]int{2, 8}, 512<<10)
	if err != nil {
		t.Fatal(err)
	}
	if pts[1].Speedup <= pts[0].Speedup {
		t.Fatalf("speedup not increasing: P=2 %.2f vs P=8 %.2f", pts[0].Speedup, pts[1].Speedup)
	}
	if pts[1].Speedup < 1.3 {
		t.Fatalf("P=8 speedup %.2f, want > 1.3 (model: 1.75)", pts[1].Speedup)
	}
}

func TestRxBenchInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid config did not panic")
		}
	}()
	RunRxBench(Env{}, RxBenchConfig{Transport: verbs.UD, Workers: 0, ChunkBytes: 4096, TotalBytes: 1})
}
