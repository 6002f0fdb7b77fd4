package fabric

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// The keyed pipeline's contract, exercised directly at the packet level: a
// randomized mix of unicast and multicast injections from every host must
// land at every host at exactly the arrival times the confined pipeline
// produces. The two share the serializer math but not the scheduling path,
// so only the order of same-time arrivals may differ.

// propTopology is a two-level fat tree: big enough that packets cross
// host->leaf, leaf->spine, spine->leaf and leaf->host channels, small
// enough that the property runs in milliseconds.
func propTopology(t *testing.T) *topology.Graph {
	t.Helper()
	g, err := topology.TwoLevelFatTree(topology.FatTreeSpec{
		Hosts: 12, HostsPerLeaf: 4, Spines: 2, TrunkLinks: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// propInjections schedules the deterministic pseudorandom traffic: per
// host, a splitmix-derived stream of injection times in [0, 50 µs), payload
// sizes, unicast destinations, and a 1-in-4 chance of multicasting to the
// all-hosts group instead. The stream depends only on the seed.
func propInjections(f *Fabric, nics []*NIC, gid GroupID, seed uint64) {
	hosts := f.Graph().Hosts()
	for i, nic := range nics {
		rng := sim.NewRNG(sim.Splitmix64(seed ^ sim.Splitmix64(uint64(i))))
		for k := 0; k < 40; k++ {
			at := sim.Time(rng.Uint64() % 50_000)
			size := 64 + int(rng.Uint64()%4033)
			flow := rng.Uint64()
			var pkt Packet
			if rng.Uint64()%4 == 0 {
				pkt = Packet{Group: gid, Flow: flow, PayloadBytes: size}
			} else {
				dst := hosts[(i+1+int(rng.Uint64()%uint64(len(hosts)-1)))%len(hosts)]
				pkt = Packet{Dst: dst, Group: NoGroup, Flow: flow, PayloadBytes: size}
			}
			f.Engine().AtHandler(at, call(func() { nic.Inject(&pkt) }), 0, 0, nil)
		}
	}
}

// runTraffic executes the randomized traffic through the keyed pipeline
// (keyed) or the confined one and returns each host's arrival times in
// firing order. Keying must engage when asked — the test is void otherwise.
func runTraffic(t *testing.T, seed uint64, keyed bool) [][]sim.Time {
	t.Helper()
	g := propTopology(t)
	eng := sim.NewEngine(seed)
	f := New(eng, g, Config{})
	if keyed && !f.EnablePartition() {
		t.Fatal("EnablePartition refused a pristine fabric")
	}
	hosts := g.Hosts()
	gid, err := f.CreateGroup(g.TopSwitches()[0], hosts)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]sim.Time, len(hosts))
	nics := make([]*NIC, len(hosts))
	for i, h := range hosts {
		nics[i] = f.AttachNIC(h)
		if err := nics[i].AttachGroup(gid); err != nil {
			t.Fatal(err)
		}
		nics[i].Deliver = func(*Packet) {
			got[i] = append(got[i], eng.Now())
		}
	}
	propInjections(f, nics, gid, seed)
	eng.Run()
	return got
}

// TestPartitionedDeliveryInvariance is the keyed-vs-confined property: per
// host, the keyed pipeline's arrival-time multiset equals the confined
// pipeline's. Both lists are in firing order, hence sorted, so comparing
// them element by element compares the multisets.
func TestPartitionedDeliveryInvariance(t *testing.T) {
	for _, seed := range []uint64{3, 17} {
		keyed, conf := runTraffic(t, seed, true), runTraffic(t, seed, false)
		total := 0
		for h := range keyed {
			total += len(keyed[h])
			if len(conf[h]) != len(keyed[h]) {
				t.Fatalf("seed %d host %d: confined delivered %d, keyed %d",
					seed, h, len(conf[h]), len(keyed[h]))
			}
			for k := range keyed[h] {
				if keyed[h][k] != conf[h][k] {
					t.Fatalf("seed %d host %d: arrival-time multisets diverge at %d: keyed %v, confined %v",
						seed, h, k, keyed[h][k], conf[h][k])
				}
			}
		}
		if total == 0 {
			t.Fatalf("seed %d: nothing was delivered", seed)
		}
	}
}
