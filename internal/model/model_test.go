package model

import (
	"math"
	"testing"

	"repro/internal/topology"
)

func TestSpeedupINCFormula(t *testing.T) {
	cases := map[int]float64{2: 1.0, 4: 1.5, 8: 1.75, 1024: 2 - 2.0/1024}
	for p, want := range cases {
		if got := SpeedupINC(p); math.Abs(got-want) > 1e-12 {
			t.Errorf("S(%d) = %v, want %v", p, got, want)
		}
	}
	if SpeedupINC(0) != 0 {
		t.Error("S(0) should be 0")
	}
}

// ringPairTime returns the ideal completion time (seconds) of concurrent
// ring AG and ring RS, each moving N(P-1) bytes with the NIC bandwidth
// split evenly between them (Appendix B, configuration 1).
func ringPairTime(p int, n float64, bnic float64) float64 {
	if p < 2 {
		return 0
	}
	return n * float64(p-1) / (bnic / 2)
}

// incPairTime returns the ideal completion time of concurrent multicast AG
// and INC RS: the AG receive path and RS send path each carry N(P-1)
// bytes on their own NIC direction at (1-1/P)·B (Appendix B, config 2).
func incPairTime(p int, n float64, bnic float64) float64 {
	if p < 2 {
		return 0
	}
	return n * float64(p-1) / (bnic * (1 - 1/float64(p)))
}

func TestPairTimesRatioMatchesSpeedup(t *testing.T) {
	// T_ring / T_inc must equal S = 2 - 2/P for any P, N, B.
	for _, p := range []int{2, 4, 16, 188, 1024} {
		ring := ringPairTime(p, 1<<20, 25e9)
		inc := incPairTime(p, 1<<20, 25e9)
		if math.Abs(ring/inc-SpeedupINC(p)) > 1e-9 {
			t.Errorf("P=%d: ratio %v, want %v", p, ring/inc, SpeedupINC(p))
		}
	}
}

func TestTrafficSavingsApproach2x(t *testing.T) {
	// Figure 2's system: 1024 nodes, radix-32 three-level fat-tree.
	g, err := topology.ThreeLevelFatTree(32, 1024)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewTrafficModel(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.hosts) != 1024 {
		t.Fatalf("hosts = %d", len(m.hosts))
	}
	s := m.Savings(1 << 20)
	if s < 1.5 || s > 2.5 {
		t.Fatalf("traffic savings %v, want ≈2x (Figure 2)", s)
	}
}

func TestTrafficSavingsSmallFatTree(t *testing.T) {
	g, err := topology.TwoLevelFatTree(topology.FatTreeSpec{Hosts: 16, HostsPerLeaf: 4, Spines: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewTrafficModel(g)
	if err != nil {
		t.Fatal(err)
	}
	// Linear must move at least as much as ring; mcast must beat both.
	n := 1 << 16
	ring := m.RingAllgatherBytes(n)
	linear := m.LinearAllgatherBytes(n)
	mc := m.McastAllgatherBytes(n)
	if mc >= ring {
		t.Fatalf("mcast (%.3g) not below ring (%.3g)", mc, ring)
	}
	if linear < ring {
		t.Fatalf("linear (%.3g) below ring (%.3g)", linear, ring)
	}
}

// mcastBroadcastBytes returns total link bytes for one multicast broadcast.
func (m *TrafficModel) mcastBroadcastBytes(n int) float64 {
	return float64(n) * float64(m.mcastEdges-1)
}

// knomialBroadcastBytes returns total link bytes for a k-nomial tree
// broadcast from root 0.
func (m *TrafficModel) knomialBroadcastBytes(n, radix int) float64 {
	p := len(m.hosts)
	total := 0.0
	var walk func(v int)
	walk = func(v int) {
		for _, c := range knomialChildren(v, p, radix) {
			total += float64(m.hops[v][c]) * float64(n)
			walk(c)
		}
	}
	walk(0)
	return total
}

// knomialChildren mirrors the runtime tree construction (root fixed at 0).
func knomialChildren(v, size, radix int) []int {
	limit := size
	if v != 0 {
		limit = 1
		for (v/limit)%radix == 0 {
			limit *= radix
		}
	}
	var children []int
	for pow := 1; pow < limit && pow < size; pow *= radix {
		for d := 1; d < radix; d++ {
			c := v + d*pow
			if c >= size {
				break
			}
			children = append(children, c)
		}
	}
	return children
}

func TestMcastBroadcastVsKnomial(t *testing.T) {
	g := topology.Testbed188()
	m, err := NewTrafficModel(g)
	if err != nil {
		t.Fatal(err)
	}
	n := 64 << 10
	mc := m.mcastBroadcastBytes(n)
	kn := m.knomialBroadcastBytes(n, 4)
	if mc >= kn {
		t.Fatalf("mcast broadcast traffic (%.3g) not below knomial (%.3g)", mc, kn)
	}
	// Paper Figure 12: broadcast saves ~1.5x.
	if ratio := kn / mc; ratio < 1.2 || ratio > 3 {
		t.Fatalf("broadcast savings ratio %v outside plausible range", ratio)
	}
}

func TestMcastTreeEdgesTestbed(t *testing.T) {
	g := topology.Testbed188()
	m, err := NewTrafficModel(g)
	if err != nil {
		t.Fatal(err)
	}
	// Tree: 188 host links + 12 leaf uplinks toward the root spine... at
	// minimum hosts + leaves edges; at most hosts + leaves + spines.
	if m.mcastEdges < 188+12 || m.mcastEdges > 188+12+6 {
		t.Fatalf("tree edges = %d", m.mcastEdges)
	}
}

func TestBitmapModel(t *testing.T) {
	pts := BitmapModel(10, 30, 4096)
	if len(pts) != 21 {
		t.Fatalf("points = %d", len(pts))
	}
	// 24 PSN bits: 16M chunks -> 64 GiB buffer, 2 MiB bitmap (> LLC).
	var p24 BitmapPoint
	for _, p := range pts {
		if p.PSNBits == 24 {
			p24 = p
		}
	}
	if p24.MaxRecvBuffer != float64(uint64(1)<<24*4096) {
		t.Fatalf("24-bit buffer = %v", p24.MaxRecvBuffer)
	}
	if p24.BitmapBytes != float64(uint64(1)<<24/8) {
		t.Fatalf("24-bit bitmap = %v", p24.BitmapBytes)
	}
	if p24.FitsDPALLC {
		t.Fatal("2 MiB bitmap reported as fitting a 1.5 MB LLC")
	}
	// Monotonicity.
	for i := 1; i < len(pts); i++ {
		if pts[i].BitmapBytes <= pts[i-1].BitmapBytes {
			t.Fatal("bitmap sizes not increasing")
		}
	}
}

func TestMaxBufferFittingLLC(t *testing.T) {
	// Paper §III-D: a bitmap filling the 1.5 MB LLC addresses ≈50 GB of
	// receive buffer with 4 KiB chunks.
	got := MaxBufferFittingLLC(4096)
	if got < 45e9 || got > 55e9 {
		t.Fatalf("LLC-limited buffer = %.3g, want ≈50 GB", got)
	}
}

func TestCommunicatorsFittingLLC(t *testing.T) {
	// Paper §III-D: 64 KiB bitmaps + 16 KiB contexts -> more than 16
	// communicators fit the LLC.
	got := CommunicatorsFittingLLC(64<<10, 16<<10)
	if got <= 16 {
		t.Fatalf("communicators fitting LLC = %d, want > 16", got)
	}
	if CommunicatorsFittingLLC(0, 0) != 0 {
		t.Fatal("degenerate sizes should fit zero")
	}
}

func TestTrafficModelErrors(t *testing.T) {
	g, _ := topology.TwoLevelFatTree(topology.FatTreeSpec{Hosts: 2, HostsPerLeaf: 2, Spines: 1})
	m, err := NewTrafficModel(g)
	if err != nil {
		t.Fatal(err)
	}
	if m.RingAllgatherBytes(0) != 0 {
		t.Fatal("zero bytes should cost zero")
	}
}

func TestEconomicsSuperPOD(t *testing.T) {
	// Paper §VII: to drive 4x 1.6 Tbit/s-class links with 4 KiB datagrams
	// in both directions takes >= 64 CPU cores; for the SuperPOD node the
	// NIC solution is ~2.5x cheaper and ~7x more energy efficient.
	r := SuperPODNode().Economics()
	if r.CoresNeeded != 32 { // 4x 400 Gbit/s, both directions, 1 core/100G
		t.Fatalf("cores = %v, want 32", r.CoresNeeded)
	}
	if r.CostAdvantage < 2.5*0.8 || r.CostAdvantage > 2.5*1.2 {
		t.Fatalf("cost advantage %.2f, want ≈2.5 (paper)", r.CostAdvantage)
	}
	if r.PowerAdvantage < 7*0.7 || r.PowerAdvantage > 7*1.3 {
		t.Fatalf("power advantage %.2f, want ≈7 (paper)", r.PowerAdvantage)
	}
}

func TestEconomicsTbitLinks(t *testing.T) {
	in := SuperPODNode()
	in.LinkGbps = 1600
	r := in.Economics()
	if r.CoresNeeded != 128 {
		t.Fatalf("1.6T cores = %v, want 128 (paper: 'at least 64' for one direction x4)", r.CoresNeeded)
	}
}
