package fabric

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// TestPoolSerialRingReusesEveryPacket: a two-way flow has no imbalance —
// after the first round the pool never makes another packet and holds them
// all at quiescence.
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
	pool := &f.pool
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

// TestPoolCapBoundsOneWayFlow: a one-way flow on a keyed fabric carries the
// sender's packets to the receiver and nothing back, yet the one pool takes
// every delivered packet back, so the flow never makes more packets than
// one burst holds in flight.
func TestPoolCapBoundsOneWayFlow(t *testing.T) {
	g := topology.Star(4)
	eng := sim.NewEngine(1)
	f := New(eng, g, Config{})
	if !f.EnablePartition() {
		t.Fatal("EnablePartition refused a pristine fabric")
	}
	hosts := g.Hosts()
	src, dst := f.AttachNIC(hosts[0]), f.AttachNIC(hosts[3])
	const burst = 16
	for i := 0; i < 100; i++ {
		for k := 0; k < burst; k++ {
			pkt := src.NewPacket()
			pkt.Dst, pkt.PayloadBytes = dst.Host, 4096
			src.Inject(pkt)
		}
		eng.Run()
	}
	if f.pool.made != burst || len(f.pool.free) != burst {
		t.Fatalf("made %d free %d, want one burst (%d) made and every packet back", f.pool.made, len(f.pool.free), burst)
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
