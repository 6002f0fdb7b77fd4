package core

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/verbs"
)

// TestAppendixASchedule verifies the broadcast-sequencer schedule: with M
// chains over P ranks (R = P/M steps), the active group at step i is
// G_i = {P_i, P_{R+i}, ..., P_{(M-1)R+i}} — i.e. within every chain the
// ranks start transmitting in strictly increasing order, and chain heads
// start without waiting for other chains.
func TestAppendixASchedule(t *testing.T) {
	const p, m = 8, 2
	r0 := p / m // ranks per chain
	_, _, comm := buildComm(t, p, fabric.Config{}, Config{Transport: verbs.UD, Chains: m})
	if _, err := runAllgather(comm, 1<<20); err != nil {
		t.Fatal(err)
	}
	start := make([]sim.Time, p)
	for i := 0; i < p; i++ {
		op := comm.Rank(i).op
		if !op.txStarted {
			t.Fatalf("rank %d never transmitted", i)
		}
		start[i] = op.tTxStart
	}
	// Within each chain, transmission starts in rank order.
	for c := 0; c < m; c++ {
		for i := 1; i < r0; i++ {
			prev, cur := c*r0+i-1, c*r0+i
			if start[cur] <= start[prev] {
				t.Fatalf("chain %d: rank %d started (%v) before its predecessor %d (%v)",
					c, cur, start[cur], prev, start[prev])
			}
		}
	}
	// Chain heads start long before the other chain's later members: the
	// chains run in parallel, not serialized after one another.
	if start[r0] >= start[r0-1] {
		t.Fatalf("second chain head (%v) waited for the first chain's tail (%v)",
			start[r0], start[r0-1])
	}
}

// TestConstantSendBandwidth verifies Insight 1: the per-rank send-path
// volume of the multicast Allgather stays ~constant as P grows, while a
// ring's grows linearly.
func TestConstantSendBandwidth(t *testing.T) {
	uplinkBytes := func(p int) float64 {
		eng := sim.NewEngine(5)
		g, err := topology.TwoLevelFatTree(topology.FatTreeSpec{Hosts: p, HostsPerLeaf: 4, Spines: 2})
		if err != nil {
			t.Fatal(err)
		}
		f := fabric.New(eng, g, fabric.Config{})
		comm, err := newComm(f, g.Hosts(), Config{Transport: verbs.UD})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runAllgather(comm, 1<<18); err != nil {
			t.Fatal(err)
		}
		h := g.Hosts()[0]
		return float64(f.ChannelStats(h, g.LeafOf(h)).Bytes)
	}
	small, large := uplinkBytes(8), uplinkBytes(16)
	// Doubling P must not meaningfully change the send-path volume
	// (payload is fixed at N; only control traffic grows, logarithmically).
	if large > small*1.2 {
		t.Fatalf("send-path volume grew from %.3g to %.3g when P doubled; want ~constant", small, large)
	}
	// And it is ~N, not N*(P-1).
	wire := float64(1<<18) * (1 + 64.0/4096.0)
	if small > wire*1.25 {
		t.Fatalf("rank 0 injected %.3g bytes, want ≈N=%.3g (Insight 1)", small, wire)
	}
}

// TestConstantTimeBroadcast verifies the "constant-time" property: for a
// fixed buffer, broadcast duration is nearly independent of the number of
// leaves (only synchronization grows, logarithmically).
func TestConstantTimeBroadcast(t *testing.T) {
	duration := func(p int) sim.Time {
		eng := sim.NewEngine(9)
		g, err := topology.TwoLevelFatTree(topology.FatTreeSpec{Hosts: p, HostsPerLeaf: 4, Spines: 2})
		if err != nil {
			t.Fatal(err)
		}
		f := fabric.New(eng, g, fabric.Config{})
		comm, err := newComm(f, g.Hosts(), Config{Transport: verbs.UD})
		if err != nil {
			t.Fatal(err)
		}
		res, err := runBroadcast(comm, 0, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		return res.Duration()
	}
	d4, d16 := duration(4), duration(16)
	if float64(d16) > 1.25*float64(d4) {
		t.Fatalf("broadcast time grew %v -> %v when P quadrupled; want ~constant", d4, d16)
	}
}

// TestRingSendBandwidthGrowsLinearly is the contrast case for Insight 1,
// pinning the baseline behaviour the paper improves on.
func TestRingSendBandwidthGrowsLinearly(t *testing.T) {
	// Verified through the analytic expectation: each rank forwards P-1
	// blocks; rank 0's uplink carries (P-1)*N bytes.
	// (The coll package measures this directly; here we check the mcast
	// allgather's receive path still scales with P as it must.)
	recvBytes := func(p int) float64 {
		eng := sim.NewEngine(5)
		g, err := topology.TwoLevelFatTree(topology.FatTreeSpec{Hosts: p, HostsPerLeaf: 4, Spines: 2})
		if err != nil {
			t.Fatal(err)
		}
		f := fabric.New(eng, g, fabric.Config{})
		comm, err := newComm(f, g.Hosts(), Config{Transport: verbs.UD})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runAllgather(comm, 1<<18); err != nil {
			t.Fatal(err)
		}
		h := g.Hosts()[0]
		return float64(f.ChannelStats(g.LeafOf(h), h).Bytes)
	}
	small, large := recvBytes(8), recvBytes(16)
	ratio := large / small
	// (16-1)/(8-1) = 2.14.
	if ratio < 1.9 || ratio > 2.4 {
		t.Fatalf("receive-path growth ratio %.2f, want ≈2.14 (scales with P-1)", ratio)
	}
}

// TestFig9ExecutionFlow validates the per-rank phase sequence of Figure 9
// through the recorded events: dispatch -> RNR sync -> (TX|RX phases) ->
// final handshake -> done, with recovery absent on a lossless fabric.
func TestFig9ExecutionFlow(t *testing.T) {
	rec := &telemetry.Bundle{}
	eng := sim.NewEngine(11)
	g := topology.Star(4)
	f := fabric.New(eng, g, fabric.Config{})
	comm, err := newComm(f, g.Hosts(), Config{Transport: verbs.UD, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runAllgather(comm, 65536); err != nil {
		t.Fatal(err)
	}
	for rk := 0; rk < 4; rk++ {
		phases := rec.ByRank(rk)
		idx := func(p string) int {
			for i, e := range phases {
				if e.Phase == p {
					return i
				}
			}
			return -1
		}
		for _, p := range []string{telemetry.PhaseDispatch, telemetry.PhaseBarrier,
			telemetry.PhaseTxStart, telemetry.PhaseTxDone, telemetry.PhaseRxDone,
			telemetry.PhaseFinal, telemetry.PhaseDone} {
			if idx(p) < 0 {
				t.Fatalf("rank %d missing phase %s: %v", rk, p, phases)
			}
		}
		if !(idx(telemetry.PhaseDispatch) < idx(telemetry.PhaseBarrier) &&
			idx(telemetry.PhaseBarrier) < idx(telemetry.PhaseTxStart) &&
			idx(telemetry.PhaseTxStart) < idx(telemetry.PhaseTxDone) &&
			idx(telemetry.PhaseRxDone) < idx(telemetry.PhaseDone) &&
			idx(telemetry.PhaseFinal) < idx(telemetry.PhaseDone)) {
			t.Fatalf("rank %d phases out of order: %v", rk, phases)
		}
		if idx(telemetry.PhaseRecovery) >= 0 {
			t.Fatalf("rank %d entered recovery on a lossless fabric", rk)
		}
	}
	if rec.Timeline() == "(no events)\n" {
		t.Fatal("empty timeline")
	}
}

// TestTraceRecordsRecovery checks the slow-path events appear under drops.
func TestTraceRecordsRecovery(t *testing.T) {
	rec := &telemetry.Bundle{}
	eng := sim.NewEngine(21)
	g := topology.Star(4)
	f := fabric.New(eng, g, fabric.Config{DropRate: 0.05})
	comm, err := newComm(f, g.Hosts(), Config{
		Transport: verbs.UD, Tracer: rec, VerifyData: true,
		CutoffAlpha: 50 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runAllgather(comm, 150000); err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
	sawRecovery, sawServe := false, false
	for _, e := range rec.Events {
		if e.Phase == telemetry.PhaseRecovery {
			sawRecovery = true
		}
		if e.Phase == telemetry.PhaseFetchServe {
			sawServe = true
		}
	}
	if !sawRecovery || !sawServe {
		t.Fatalf("recovery=%v serve=%v; expected both under 5%% drops", sawRecovery, sawServe)
	}
}

func TestBarrierCollective(t *testing.T) {
	_, _, comm := buildComm(t, 8, fabric.Config{}, Config{Transport: verbs.UD})
	res, err := runBarrier(comm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "barrier" || res.Duration() <= 0 {
		t.Fatalf("barrier result: %+v", res)
	}
	for _, s := range res.PerRank {
		if s.BytesReceived != 0 {
			t.Fatalf("barrier moved %d payload bytes", s.BytesReceived)
		}
	}
	// Barriers compose with data collectives on the same communicator.
	if _, err := runAllgather(comm, 8192); err != nil {
		t.Fatal(err)
	}
	if _, err := runBarrier(comm); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierScalesLogarithmically(t *testing.T) {
	dur := func(p int) sim.Time {
		eng := sim.NewEngine(2)
		g := topology.Star(p)
		f := fabric.New(eng, g, fabric.Config{})
		comm, err := newComm(f, g.Hosts(), Config{Transport: verbs.UD})
		if err != nil {
			t.Fatal(err)
		}
		res, err := runBarrier(comm)
		if err != nil {
			t.Fatal(err)
		}
		return res.Duration()
	}
	d4, d32 := dur(4), dur(32)
	// 8x the ranks: dissemination adds ceil(log2 32)-ceil(log2 4) = 3
	// rounds; time must grow far less than linearly.
	if float64(d32) > 4*float64(d4) {
		t.Fatalf("barrier grew %v -> %v for 8x ranks; want logarithmic", d4, d32)
	}
}

// TestSequencerLimitsIncast backs the §IV-A design rationale: running every
// root simultaneously (M = P) builds deep egress backlogs at the receivers,
// while the sequencer (M = 1) keeps in-flight traffic — and thus queueing —
// bounded near one buffer's worth.
func TestSequencerLimitsIncast(t *testing.T) {
	backlog := func(chains int) sim.Time {
		eng := sim.NewEngine(4)
		g := topology.Star(16)
		f := fabric.New(eng, g, fabric.Config{})
		comm, err := newComm(f, g.Hosts(), Config{
			Transport: verbs.UD, Chains: chains, Subgroups: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runAllgather(comm, 1<<20); err != nil {
			t.Fatal(err)
		}
		return f.MaxBacklog()
	}
	serial, allAtOnce := backlog(1), backlog(16)
	if allAtOnce < 4*serial {
		t.Fatalf("incast backlog with all roots (%v) not >> sequenced (%v)", allAtOnce, serial)
	}
}

func TestBroadcastUCTransport(t *testing.T) {
	_, _, comm := buildComm(t, 4, fabric.Config{},
		Config{Transport: verbs.UC, ChunkBytes: 32 << 10, VerifyData: true})
	if _, err := runBroadcast(comm, 1, 200000); err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
}

func TestSubgroupTreesSpreadAcrossSpines(t *testing.T) {
	// Packet parallelism maps subgroup trees to distinct spine roots, so
	// trunk traffic spreads: with 2 spines and 2 subgroups, both spines
	// must carry allgather chunks.
	eng := sim.NewEngine(6)
	g, err := topology.TwoLevelFatTree(topology.FatTreeSpec{Hosts: 8, HostsPerLeaf: 4, Spines: 2})
	if err != nil {
		t.Fatal(err)
	}
	f := fabric.New(eng, g, fabric.Config{})
	comm, err := newComm(f, g.Hosts(), Config{Transport: verbs.UD, Subgroups: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runAllgather(comm, 1<<18); err != nil {
		t.Fatal(err)
	}
	leaf := g.LeafOf(g.Hosts()[0])
	used := 0
	for _, sw := range g.Switches() {
		if g.Nodes[sw].Level == 2 && f.ChannelStats(leaf, sw).Bytes > 1<<17 {
			used++
		}
	}
	if used != 2 {
		t.Fatalf("subgroup trees used %d spines, want both", used)
	}
}
