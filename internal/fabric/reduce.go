package fabric

import (
	"fmt"

	"repro/internal/topology"
)

// In-network compute (INC) support, modeled after SHARP: a reduction group
// is a spanning tree whose root switch aggregates contribution packets.
// When the expected number of contributions for a chunk has arrived, the
// root emits a single result packet toward the chunk's destination host.
//
// The fabric accounts traffic and timing only — reduced data values are
// not computed (the paper's Appendix B experiment needs the flow shape:
// send path N(P-1) up, receive path N down, no receive-side incast).

// ReduceGroupID names an in-network reduction group. The zero value means
// "no reduction" so that ordinary packets need no explicit field setup;
// valid group ids start at 1.
type ReduceGroupID int

// NoReduceGroup marks a packet as not participating in reduction.
const NoReduceGroup ReduceGroupID = 0

type reduceGroup struct {
	tree    *topology.MulticastTree
	need    int    // contributions per chunk
	members []bool // by NodeID
	// pending[chunk] counts contributions so far.
	pending map[uint64]int
	// Reduced counts completed chunk reductions.
	reduced uint64
}

// CreateReduceGroup builds a reduction tree rooted at a switch over the
// member hosts. Every member is expected to contribute once per chunk.
func (f *Fabric) CreateReduceGroup(root topology.NodeID, members []topology.NodeID) (ReduceGroupID, error) {
	if f.part != nil {
		return NoReduceGroup, fmt.Errorf("fabric: in-network reduction at switch %d requires the confined fabric, not the keyed pipeline", root)
	}
	mt, err := f.g.BuildMulticastTree(root, members)
	if err != nil {
		return NoReduceGroup, err
	}
	memberSet := make([]bool, len(f.g.Nodes))
	for _, m := range mt.Members {
		memberSet[m] = true
	}
	f.reduceGroups = append(f.reduceGroups, &reduceGroup{
		tree:    mt,
		need:    len(mt.Members),
		members: memberSet,
		pending: make(map[uint64]int),
	})
	return ReduceGroupID(len(f.reduceGroups)), nil
}

// ReducedChunks reports how many chunk reductions the group's root has
// completed.
func (f *Fabric) ReducedChunks(id ReduceGroupID) uint64 {
	return f.reduceGroups[id-1].reduced
}

// routeReduce moves a contribution packet one hop up the reduction tree,
// or aggregates it at the root.
func (f *Fabric) routeReduce(pkt *Packet, node topology.NodeID) {
	rg := f.reduceGroups[pkt.Reduce-1]
	if !rg.members[pkt.Src] {
		panic(fmt.Sprintf("fabric: reduce contribution from non-member host %d", pkt.Src))
	}
	if node == rg.tree.Root {
		cnt := rg.pending[pkt.ReduceChunk] + 1
		if cnt < rg.need {
			rg.pending[pkt.ReduceChunk] = cnt
			f.pool.put(pkt) // absorbed into the aggregation state
			return
		}
		delete(rg.pending, pkt.ReduceChunk)
		rg.reduced++
		// Emit the single reduced result toward the destination host: the
		// final contribution itself travels on (all contributions of a chunk
		// are equally sized). A copy would share a pooled packet's header.
		pkt.Reduce = NoReduceGroup
		f.forwardUnicast(pkt, node, -1)
		return
	}
	port := rg.tree.ParentPort[node]
	if port < 0 {
		panic(fmt.Sprintf("fabric: reduce contribution at off-tree node %d", node))
	}
	f.transmit(pkt, node, port)
}
