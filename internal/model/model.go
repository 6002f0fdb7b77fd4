// Package model implements the paper's analytic cost models: the Figure 2
// theoretical traffic comparison on a 1024-node radix-32 fat-tree, the
// Figure 7 bitmap/receive-buffer sizing against PSN bits, and the
// Appendix B speedup of concurrent {multicast Allgather, INC Reduce-
// Scatter} over {ring Allgather, ring Reduce-Scatter}.
package model

import (
	"fmt"

	"repro/internal/topology"
)

// TrafficModel counts exact link crossings of Allgather algorithms on a
// concrete topology (Figure 2). Bytes are payload only; the simulator adds
// headers, the analytic model follows the paper in ignoring them.
type TrafficModel struct {
	g     *topology.Graph
	hosts []topology.NodeID
	// hops[i][j]: link distance between host i and host j.
	hops [][]int
	// mcastEdges: links of the multicast spanning tree over all hosts.
	mcastEdges int
}

// NewTrafficModel prepares a model over all hosts of g. The multicast tree
// is rooted at the first top-level switch, as the runtime does.
func NewTrafficModel(g *topology.Graph) (*TrafficModel, error) {
	hosts := g.Hosts()
	if len(hosts) == 0 {
		return nil, fmt.Errorf("model: topology has no hosts")
	}
	m := &TrafficModel{g: g, hosts: hosts}
	m.hops = make([][]int, len(hosts))
	for i, h := range hosts {
		all := g.HopsFrom(h)
		row := make([]int, len(hosts))
		for j, h2 := range hosts {
			row[j] = all[h2]
		}
		m.hops[i] = row
	}
	roots := g.TopSwitches()
	if len(roots) == 0 {
		return nil, fmt.Errorf("model: topology has no switch to root a multicast tree")
	}
	mt, err := g.BuildMulticastTree(roots[0], hosts)
	if err != nil {
		return nil, err
	}
	edges := 0
	for _, ports := range mt.TreePorts {
		edges += len(ports)
	}
	m.mcastEdges = edges / 2 // each tree edge counted at both endpoints
	return m, nil
}

// Hosts returns the number of endpoints in the model.
func (m *TrafficModel) Hosts() int { return len(m.hosts) }

// RingAllgatherBytes returns the total bytes crossing all links for a ring
// Allgather with per-rank buffer n: every rank's buffer travels P-1 hops
// around the ring, each hop crossing hops(r, r+1) links.
func (m *TrafficModel) RingAllgatherBytes(n int) float64 {
	p := len(m.hosts)
	if p < 2 {
		return 0
	}
	// At step k, rank r forwards one block of n bytes to r+1; over P-1
	// steps each ring edge carries (P-1) blocks.
	total := 0.0
	for r := 0; r < p; r++ {
		total += float64(float64(m.hops[r][(r+1)%p]) * float64(n) * float64(p-1))
	}
	return total
}

// LinearAllgatherBytes returns total link bytes for the direct algorithm:
// every rank unicasts its buffer to every other rank.
func (m *TrafficModel) LinearAllgatherBytes(n int) float64 {
	p := len(m.hosts)
	total := 0.0
	for r := 0; r < p; r++ {
		for q := 0; q < p; q++ {
			if q != r {
				total += float64(float64(m.hops[r][q]) * float64(n))
			}
		}
	}
	return total
}

// McastAllgatherBytes returns total link bytes for the multicast
// composition: each rank's buffer crosses every tree link exactly once
// (Insight 1), minus the sender's own host link (no loopback).
func (m *TrafficModel) McastAllgatherBytes(n int) float64 {
	p := len(m.hosts)
	return float64(p) * float64(n) * float64(m.mcastEdges-1)
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

// Savings returns the ring-to-multicast Allgather traffic ratio — the
// quantity Figure 2 plots, approaching 2x at scale.
func (m *TrafficModel) Savings(n int) float64 {
	mc := m.McastAllgatherBytes(n)
	if mc == 0 {
		return 0
	}
	return m.RingAllgatherBytes(n) / mc
}

// --- Figure 7: bitmap and receive-buffer sizing -------------------------------

// DPALLCBytes is the 1.5 MB BlueField-3 DPA last-level cache Figure 7
// sizes the bitmap against.
const DPALLCBytes = 3 << 19

// BitmapPoint is one x-position of Figure 7.
type BitmapPoint struct {
	PSNBits int
	// MaxRecvBuffer is the largest addressable Allgather receive buffer:
	// 2^bits chunks of MTU size.
	MaxRecvBuffer float64
	// BitmapBytes is the reliability-bitmap footprint: one bit per chunk.
	BitmapBytes float64
	// FitsDPALLC reports whether the bitmap fits the DPA's 1.5 MB LLC.
	FitsDPALLC bool
}

// BitmapModel evaluates Figure 7 for PSN widths minBits..maxBits with the
// given MTU (the paper uses 4 KiB).
func BitmapModel(minBits, maxBits, mtu int) []BitmapPoint {
	var out []BitmapPoint
	for b := minBits; b <= maxBits; b++ {
		chunks := float64(uint64(1) << uint(b))
		p := BitmapPoint{
			PSNBits:       b,
			MaxRecvBuffer: chunks * float64(mtu),
			BitmapBytes:   chunks / 8,
		}
		p.FitsDPALLC = p.BitmapBytes <= DPALLCBytes
		out = append(out, p)
	}
	return out
}

// MaxBufferFittingLLC returns the largest receive buffer whose bitmap fits
// the DPA LLC (the paper: ≈50 GB with 4 KiB chunks).
func MaxBufferFittingLLC(mtu int) float64 {
	return DPALLCBytes * 8 * float64(mtu)
}

// CommunicatorsFittingLLC returns how many communicator contexts fit in
// the DPA LLC given a per-communicator bitmap and context size (§III-D:
// 64 KiB bitmaps + 16 KiB contexts -> more than 16 communicators).
func CommunicatorsFittingLLC(bitmapBytes, ctxBytes float64) int {
	if bitmapBytes+ctxBytes <= 0 {
		return 0
	}
	return int(DPALLCBytes / (bitmapBytes + ctxBytes))
}

// --- Appendix B: concurrent {AG, RS} speedup ----------------------------------

// SpeedupINC returns S = 2 - 2/P, the Appendix B speedup of
// {AG_mcast, RS_inc} over {AG_ring, RS_ring} on a full-bandwidth fat-tree.
func SpeedupINC(p int) float64 {
	if p <= 0 {
		return 0
	}
	return 2 - 2/float64(p)
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

// --- §VII: economics of SmartNIC offloading -------------------------------------

// EconomicsInput describes a training-node configuration for the paper's
// §VII node-level cost/energy comparison (the SuperPOD example: 2x 54-core
// Xeon 8570 sockets against 4x ConnectX-7 400 Gbit/s DPA-capable NICs).
type EconomicsInput struct {
	// LinkGbps and Links describe the node's network attachment.
	LinkGbps float64
	Links    int
	// CPUCoresPer100Gbps is the progress-engine footprint of the CPU-driven
	// stack: the paper derives >= 1 core per 100 Gbit/s per direction from
	// the Figure 5/13 single-core measurements.
	CPUCoresPer100Gbps float64
	// Sockets / CPUCost / CPUWatts describe the host CPUs (per socket).
	Sockets  int
	CPUCost  float64
	CPUWatts float64
	// NICCost / NICWatts describe one DPA-capable SmartNIC.
	NICCost  float64
	NICWatts float64
}

// SuperPODNode is the paper's reference configuration, with list-price and
// TDP figures at the paper's reported ratios (the NICs' total cost ~2.5x
// lower and energy ~7x lower than the CPUs').
func SuperPODNode() EconomicsInput {
	return EconomicsInput{
		LinkGbps:           400,
		Links:              4,
		CPUCoresPer100Gbps: 1,
		Sockets:            2,
		CPUCost:            13000, // Xeon 8570 list
		CPUWatts:           350,
		NICCost:            2600,
		NICWatts:           25,
	}
}

// EconomicsResult compares a CPU-driven node against DPA offloading.
type EconomicsResult struct {
	// CoresNeeded is the progress-engine footprint of driving every link in
	// both directions with 4 KiB datagrams on CPU cores — the reason the
	// CPU-driven node cannot also run the application.
	CoresNeeded    float64
	CPUCost        float64 // all sockets
	CPUWatts       float64
	NICCost        float64 // all NICs
	NICWatts       float64
	CostAdvantage  float64 // CPUCost / NICCost
	PowerAdvantage float64
}

// Economics evaluates the node-level comparison.
func (in EconomicsInput) Economics() EconomicsResult {
	// float64(...) keeps the doubling, an add, out of a fused multiply-add.
	r := EconomicsResult{
		CoresNeeded: float64(in.LinkGbps/100*in.CPUCoresPer100Gbps) * 2 * float64(in.Links),
		CPUCost:     float64(in.Sockets) * in.CPUCost,
		CPUWatts:    float64(in.Sockets) * in.CPUWatts,
		NICCost:     float64(in.Links) * in.NICCost,
		NICWatts:    float64(in.Links) * in.NICWatts,
	}
	if r.NICCost > 0 {
		r.CostAdvantage = r.CPUCost / r.NICCost
	}
	if r.NICWatts > 0 {
		r.PowerAdvantage = r.CPUWatts / r.NICWatts
	}
	return r
}
