package core

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/verbs"
)

// buildShared creates two communicators over the same hosts sharing one
// cluster runtime.
func buildShared(t *testing.T, p int, cfg Config) (*sim.Engine, *Communicator, *Communicator) {
	t.Helper()
	eng := sim.NewEngine(23)
	g := topology.Star(p)
	f := fabric.New(eng, g, fabric.Config{})
	cl := cluster.New(f, cluster.Config{})
	c1, err := NewCommunicatorOn(cl, g.Hosts(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewCommunicatorOn(cl, g.Hosts(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, c1, c2
}

func TestTwoCommunicatorsConcurrentDedicated(t *testing.T) {
	eng, c1, c2 := buildShared(t, 4, Config{Transport: verbs.UD, VerifyData: true})
	var r1, r2 *Result
	if err := c1.StartAllgather(40000, func(r *Result) { r1 = r }); err != nil {
		t.Fatal(err)
	}
	if err := c2.StartAllgather(60000, func(r *Result) { r2 = r }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if r1 == nil || r2 == nil {
		t.Fatal("concurrent communicators did not both complete")
	}
	if err := c1.VerifyLast(); err != nil {
		t.Fatalf("comm1: %v", err)
	}
	if err := c2.VerifyLast(); err != nil {
		t.Fatalf("comm2: %v", err)
	}
}

func TestTwoCommunicatorsArbitratedRx(t *testing.T) {
	// The §V-C deployment: both communicators' subgroup CQs are served by
	// the host's shared arbiters (2 threads per host total, instead of
	// 2 communicators x 2 subgroups dedicated threads).
	cfg := Config{Transport: verbs.UD, Subgroups: 2, ArbitratedRx: true, VerifyData: true}
	eng, c1, c2 := buildShared(t, 4, cfg)
	var r1, r2 *Result
	if err := c1.StartAllgather(50000, func(r *Result) { r1 = r }); err != nil {
		t.Fatal(err)
	}
	if err := c2.StartAllgather(50000, func(r *Result) { r2 = r }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if r1 == nil || r2 == nil {
		t.Fatal("arbitrated communicators did not both complete")
	}
	if err := c1.VerifyLast(); err != nil {
		t.Fatal(err)
	}
	if err := c2.VerifyLast(); err != nil {
		t.Fatal(err)
	}
}

func TestArbitratedRxUnderDrops(t *testing.T) {
	eng := sim.NewEngine(31)
	g := topology.Star(4)
	f := fabric.New(eng, g, fabric.Config{DropRate: 0.03})
	cl := cluster.New(f, cluster.Config{})
	comm, err := NewCommunicatorOn(cl, g.Hosts(), Config{
		Transport: verbs.UD, Subgroups: 2, ArbitratedRx: true,
		VerifyData: true, CutoffAlpha: 100 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runAllgather(comm, 100000); err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
}

func TestArbitratedGeometryMismatchRejected(t *testing.T) {
	eng := sim.NewEngine(1)
	g := topology.Star(2)
	f := fabric.New(eng, g, fabric.Config{})
	cl := cluster.New(f, cluster.Config{})
	if _, err := NewCommunicatorOn(cl, g.Hosts(), Config{
		Transport: verbs.UD, Subgroups: 2, ArbitratedRx: true,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCommunicatorOn(cl, g.Hosts(), Config{
		Transport: verbs.UD, Subgroups: 4, ArbitratedRx: true,
	}); err == nil {
		t.Fatal("mismatched arbiter geometry accepted")
	}
}

func TestArbitratedOnDPA(t *testing.T) {
	eng := sim.NewEngine(5)
	g := topology.Star(4)
	f := fabric.New(eng, g, fabric.Config{})
	cl := cluster.New(f, cluster.Config{})
	comm, err := NewCommunicatorOn(cl, g.Hosts(), Config{
		Transport: verbs.UD, Subgroups: 2, ArbitratedRx: true, RxOnDPA: true,
		VerifyData: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runAllgather(comm, 65536); err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
	if chip := comm.Rank(0).rxWkrs[0].Thread.Chip().Name(); chip != "dpa" {
		t.Fatalf("arbitrated receive worker runs on %q, want dpa", chip)
	}
}

// TestArbitratedMatchesDedicatedAlone checks that with one communicator
// the host's shared receive workers are indistinguishable from dedicated
// ones: each serves a single queue on a thread allocated in the same
// order, so every result and event count must match exactly.
func TestArbitratedMatchesDedicatedAlone(t *testing.T) {
	run := func(rxOnDPA, arbitrated bool, drop float64) ([]*Result, uint64, uint64) {
		eng, _, comm := buildComm(t, 8, fabric.Config{DropRate: drop}, Config{
			Transport: verbs.UD, Subgroups: 2, RxOnDPA: rxOnDPA, ArbitratedRx: arbitrated,
		})
		var out []*Result
		for i := 0; i < 3; i++ {
			res, err := runAllgather(comm, 64<<10)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out, eng.Executed, eng.Scheduled
	}
	for _, rxOnDPA := range []bool{false, true} {
		for _, drop := range []float64{0, 0.01} {
			ded, dedExec, dedSched := run(rxOnDPA, false, drop)
			arb, arbExec, arbSched := run(rxOnDPA, true, drop)
			if !reflect.DeepEqual(ded, arb) {
				t.Errorf("rxOnDPA=%v drop=%v: arbitrated results differ from dedicated", rxOnDPA, drop)
			}
			if dedExec != arbExec || dedSched != arbSched {
				t.Errorf("rxOnDPA=%v drop=%v: events executed/scheduled %d/%d arbitrated, %d/%d dedicated",
					rxOnDPA, drop, arbExec, arbSched, dedExec, dedSched)
			}
			t.Logf("rxOnDPA=%v drop=%v: %d events", rxOnDPA, drop, dedExec)
		}
	}
}

// Sequential collectives on two communicators interleaved: exercises the
// opSeq isolation across communicators sharing verbs contexts.
func TestInterleavedSequentialOps(t *testing.T) {
	eng, c1, c2 := buildShared(t, 3, Config{Transport: verbs.UD, VerifyData: true})
	for i := 0; i < 3; i++ {
		var done1, done2 bool
		if err := c1.StartBroadcast(i%3, 20000, func(*Result) { done1 = true }); err != nil {
			t.Fatal(err)
		}
		if err := c2.StartAllgather(10000, func(*Result) { done2 = true }); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if !done1 || !done2 {
			t.Fatalf("iteration %d incomplete", i)
		}
		if err := c1.VerifyLast(); err != nil {
			t.Fatal(err)
		}
		if err := c2.VerifyLast(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRNRPressureRecovered starves the receive queue (depth far below the
// in-flight chunk count) so genuine receiver-not-ready drops occur, and
// checks the slow path repairs them — the failure mode §III-C's barrier
// and worker scaling normally prevent.
func TestRNRPressureRecovered(t *testing.T) {
	eng := sim.NewEngine(13)
	g := topology.Star(4)
	f := fabric.New(eng, g, fabric.Config{})
	cl := cluster.New(f, cluster.Config{Verbs: verbs.Config{RQDepth: 8}})
	comm, err := NewCommunicatorOn(cl, g.Hosts(), Config{
		Transport: verbs.UD, RQDepth: 8, VerifyData: true,
		CutoffAlpha: 100 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runAllgather(comm, 400000) // ~98 chunks per rank >> RQ depth 8
	if err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
	var rnr uint64
	for _, s := range res.PerRank {
		rnr += s.RNRDrops
	}
	if rnr == 0 {
		t.Fatal("expected RNR drops with an 8-deep receive queue")
	}
	if res.MaxRecovered() == 0 {
		t.Fatal("RNR drops occurred but nothing was recovered")
	}
}

// TestDropsAndReorderCombined stacks fabric drops on top of adaptive
// reordering — the harshest condition the protocol is designed for.
func TestDropsAndReorderCombined(t *testing.T) {
	eng := sim.NewEngine(77)
	g := topology.Star(4)
	f := fabric.New(eng, g, fabric.Config{
		DropRate:      0.03,
		ReorderJitter: 15 * sim.Microsecond,
	})
	cl := cluster.New(f, cluster.Config{})
	comm, err := NewCommunicatorOn(cl, g.Hosts(), Config{
		Transport: verbs.UD, Subgroups: 2, VerifyData: true,
		CutoffAlpha: 100 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := runAllgather(comm, 120000); err != nil {
			t.Fatal(err)
		}
		if err := comm.VerifyLast(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMemoryFootprint checks the §III-D accounting: one multicast QP per
// subgroup, O(log P) reliable connections, staging bounded by RQ depth x
// chunk, and a bitmap that grows only with the receive buffer.
func TestMemoryFootprint(t *testing.T) {
	eng := sim.NewEngine(3)
	g := topology.Star(8)
	f := fabric.New(eng, g, fabric.Config{})
	comm, err := newComm(f, g.Hosts(), Config{
		Transport: verbs.UD, Subgroups: 4, RQDepth: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runAllgather(comm, 1<<20); err != nil {
		t.Fatal(err)
	}
	fp := comm.Footprint(0)
	if fp.DataQPs != 4 {
		t.Fatalf("data QPs = %d, want one per subgroup", fp.DataQPs)
	}
	// Dissemination peers at P=8: ±1, ±2, ±4 -> {1,2,4,6,7} plus ring
	// neighbors already included: 5 connections.
	if fp.CtrlQPs < 2 || fp.CtrlQPs > 2*4 {
		t.Fatalf("ctrl QPs = %d, want within [2, 2 log P]", fp.CtrlQPs)
	}
	if fp.StagingBytes != 4*1024*4096 {
		t.Fatalf("staging bytes = %d, want RQDepth x chunk per subgroup", fp.StagingBytes)
	}
	// 8 MiB receive buffer / 4 KiB chunks = 2048 bits = 256 bytes.
	if fp.BitmapBytes != 256 {
		t.Fatalf("bitmap bytes = %d, want 256", fp.BitmapBytes)
	}
}
