package fabric

import (
	"testing"

	"repro/internal/topology"
)

// TestPoolSerialRingReusesEveryPacket: on a confined fabric there is one
// list, so a two-way flow has no imbalance — after the first round the pool
// never makes another packet and holds them all at quiescence.
func TestPoolSerialRingReusesEveryPacket(t *testing.T) {
	eng, f, nics := testFabric(t, 4, Config{})
	const burst = 8
	round := func() {
		for i, nic := range nics {
			for k := 0; k < burst; k++ {
				pkt := nic.NewPacket()
				pkt.Dst, pkt.PayloadBytes = nics[(i+1)%len(nics)].Host, 4096
				nic.Inject(pkt)
			}
		}
		eng.Run()
	}
	round()
	pool := &f.pools[0]
	if want := burst * len(nics); pool.made != want || len(pool.free) != want {
		t.Fatalf("after one round: made %d free %d, want %d and %d", pool.made, len(pool.free), want, want)
	}
	for i := 0; i < 1000; i++ {
		round()
	}
	if want := burst * len(nics); pool.made != want || len(pool.free) != want {
		t.Fatalf("after 1000 more rounds: made %d free %d, want every packet reused (%d)", pool.made, len(pool.free), want)
	}
}

// TestPoolCapBoundsOneWayFlow: across shards a one-way flow carries the
// sender's packets to the receiver's list and nothing back. The receiving
// list keeps no more than its own shard has made; the rest go to the
// collector instead of piling up.
func TestPoolCapBoundsOneWayFlow(t *testing.T) {
	g := topology.Star(4)
	grp, eng := NewShardedEngine(1, g, Config{}, 2)
	f := New(eng, g, Config{})
	if !f.EnablePartition() {
		t.Fatal("EnablePartition refused a pristine fabric")
	}
	hosts := g.Hosts()
	src, dst := f.AttachNIC(hosts[0]), f.AttachNIC(hosts[3])
	if src.pool == dst.pool {
		t.Fatal("setup: both hosts on one shard")
	}
	send := func(from, to *NIC, n int) {
		for k := 0; k < n; k++ {
			pkt := from.NewPacket()
			pkt.Dst, pkt.PayloadBytes = to.Host, 4096
			from.Inject(pkt)
		}
		grp.Run()
	}
	const reverse = 3
	send(dst, src, reverse) // the receiving shard's own demand
	for i := 0; i < 100; i++ {
		send(src, dst, 16)
	}
	if dst.pool.made != reverse || len(dst.pool.free) != reverse {
		t.Fatalf("receiving shard: made %d free %d, want the list capped at its own %d packets",
			dst.pool.made, len(dst.pool.free), reverse)
	}
	if len(src.pool.free) > src.pool.made {
		t.Fatalf("sending shard: free %d exceeds made %d", len(src.pool.free), src.pool.made)
	}
}

// TestPoolNeverRecyclesSharedOrForeignPackets: a multicast packet is one
// object on every branch of its tree, and a packet the caller built for the
// pinned NIC.Inject API is the caller's — neither may come back out of
// NewPacket.
func TestPoolNeverRecyclesSharedOrForeignPackets(t *testing.T) {
	eng, f, nics := testFabric(t, 4, Config{})
	hosts := f.Graph().Hosts()
	gid, err := f.CreateGroup(f.Graph().Switches()[0], hosts)
	if err != nil {
		t.Fatal(err)
	}
	for _, nic := range nics {
		if err := nic.AttachGroup(gid); err != nil {
			t.Fatal(err)
		}
	}
	mcast := &Packet{Group: gid, PayloadBytes: 4096}
	foreign := &Packet{Dst: hosts[1], Group: NoGroup, PayloadBytes: 4096}
	turned := nics[0].NewPacket() // pool-born, then addressed to the group
	turned.Group, turned.PayloadBytes = gid, 4096
	nics[0].Inject(mcast)
	nics[0].Inject(foreign)
	nics[0].Inject(turned)
	eng.Run()
	if nics[1].Received != 3 || nics[2].Received != 2 {
		t.Fatalf("setup: received %d and %d packets, want 3 and 2", nics[1].Received, nics[2].Received)
	}
	for i := 0; i < 1000; i++ {
		pkt := nics[i%len(nics)].NewPacket()
		if pkt == mcast || pkt == foreign || pkt == turned {
			t.Fatalf("send %d: NewPacket handed out a packet the pool does not own", i)
		}
		if *pkt != (Packet{Group: NoGroup, Payload: pkt.Payload, pooled: true}) {
			t.Fatalf("send %d: NewPacket returned a dirty header %+v", i, *pkt)
		}
		pkt.Dst, pkt.PayloadBytes, pkt.Flow = hosts[(i+1)%len(hosts)], 512, uint64(i)
		nics[i%len(nics)].Inject(pkt)
		if i%7 == 0 {
			eng.Run()
		}
	}
	eng.Run()
}
