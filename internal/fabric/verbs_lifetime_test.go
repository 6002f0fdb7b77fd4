package fabric_test

import (
	"fmt"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/verbs"
)

// call adapts a func() to sim.Handler, for a one-off scheduled action.
type call func()

func (f call) OnEvent(*sim.Engine, sim.Handle, uint64, int, any) { f() }

// TestVerbsPacketLifetime drives every kind of message the verbs layer
// sends through one lossy, jittered fabric: UD unicast and multicast
// datagrams, in-network reduce contributions, UC and RC writes of one and of
// several segments, RC sends and RC reads, with the acks and read responses
// they cause and the retransmissions the drops cause. Every round runs to
// quiescence, and then every packet and every train the fabric made must be
// back on its free list.
func TestVerbsPacketLifetime(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runVerbsLifetime(t, seed) })
	}
}

func runVerbsLifetime(t *testing.T, seed uint64) {
	g, err := topology.TwoLevelFatTree(topology.FatTreeSpec{Hosts: 8, HostsPerLeaf: 4, Spines: 2, TrunkLinks: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(seed)
	const mtu, region = 1024, 1 << 16
	f := fabric.New(eng, g, fabric.Config{MTU: mtu, DropRate: 0.01, ReorderJitter: 300 * sim.Nanosecond})
	hosts := g.Hosts()
	n := len(hosts)
	gid, err := f.CreateGroup(g.TopSwitches()[0], hosts)
	if err != nil {
		t.Fatal(err)
	}
	owner, reducers := 0, hosts[1:5]
	rg, err := f.CreateReduceGroup(g.TopSwitches()[1], reducers)
	if err != nil {
		t.Fatal(err)
	}

	type host struct {
		ctx            *verbs.Context
		cq             *verbs.CQ
		ud             *verbs.QP
		ucOut, ucIn    *verbs.QP // connected to the next host's ucIn, the previous host's ucOut
		rcOut, rcIn    *verbs.QP
		src, dst       *verbs.MR
		udRecv, rcRecv *verbs.MR
	}
	hs := make([]*host, n)
	for i, h := range hosts {
		ctx := verbs.NewContext(f, h, verbs.Config{RetransmitTimeout: 20 * sim.Microsecond})
		cq := &verbs.CQ{}
		hs[i] = &host{
			ctx: ctx, cq: cq,
			ud:    ctx.NewQP(verbs.UD, cq, cq, 1<<16),
			ucOut: ctx.NewQP(verbs.UC, cq, cq, 0), ucIn: ctx.NewQP(verbs.UC, cq, cq, 0),
			rcOut: ctx.NewQP(verbs.RC, cq, cq, 0), rcIn: ctx.NewQP(verbs.RC, cq, cq, 1<<16),
			src:    ctx.RegisterMRData(make([]byte, region)),
			dst:    ctx.RegisterMRData(make([]byte, region)),
			udRecv: ctx.RegisterMR(mtu),
			rcRecv: ctx.RegisterMR(4 * mtu),
		}
		if err := hs[i].ud.AttachMcast(gid); err != nil {
			t.Fatal(err)
		}
	}
	for i, h := range hs {
		next, prev := hs[(i+1)%n], hs[(i+n-1)%n]
		h.ucOut.Connect(verbs.Unicast(next.ctx.Host, next.ucIn.N))
		h.ucIn.Connect(verbs.Unicast(prev.ctx.Host, prev.ucOut.N))
		h.rcOut.Connect(verbs.Unicast(next.ctx.Host, next.rcIn.N))
		h.rcIn.Connect(verbs.Unicast(prev.ctx.Host, prev.rcOut.N))
	}

	rng := sim.NewRNG(seed)
	intn := func(k int) int { return int(rng.Uint64() % uint64(k)) }
	var reads, udRecvs, writes, sends int
	const rounds = 12
	for r := 0; r < rounds; r++ {
		base := eng.Now()
		at := func() sim.Time { return base + sim.Time(intn(20_000)) }
		for i, h := range hs {
			next := hs[(i+1)%n]
			for k := 0; k < 4; k++ {
				h.ud.PostRecv(0, h.udRecv, 0, mtu)
				h.rcIn.PostRecv(0, h.rcRecv, 0, 4*mtu)
			}
			h.ud.PostRecv(0, h.udRecv, 0, mtu) // one result per reduced chunk
			d := hs[(i+1+intn(n-1))%n]
			udLen, ucLen, rcLen, sendLen, readLen := 1+intn(mtu), intn(4*mtu), 1+intn(4*mtu), intn(4*mtu), 1+intn(4*mtu)
			off := intn(region - 4*mtu)
			eng.AtHandler(at(), call(func() {
				h.ud.PostSendUD(1, verbs.Unicast(d.ctx.Host, d.ud.N), h.src, off, udLen, 7, true)
			}), 0, 0, nil)
			eng.AtHandler(at(), call(func() { h.ud.PostSendUD(2, verbs.Multicast(gid), h.src, off, udLen, 8, false) }), 0, 0, nil)
			eng.AtHandler(at(), call(func() {
				h.ucOut.PostWriteUC(3, h.src, off, ucLen, next.dst.Key, off, 9, true)
			}), 0, 0, nil)
			eng.AtHandler(at(), call(func() {
				h.rcOut.PostWriteRC(4, h.src, off, rcLen, next.dst.Key, off, 10, true)
			}), 0, 0, nil)
			eng.AtHandler(at(), call(func() { h.rcOut.PostSendRC(5, h.src, off, sendLen, 11, true) }), 0, 0, nil)
			eng.AtHandler(at(), call(func() {
				h.rcOut.PostReadRC(6, h.dst, off, next.src.Key, off, readLen)
			}), 0, 0, nil)
		}
		for i := 1; i <= len(reducers); i++ {
			h, chunk := hs[i], uint64(r)
			eng.AtHandler(at(), call(func() {
				h.ud.PostSendReduce(12, verbs.Unicast(hosts[owner], hs[owner].ud.N), rg, chunk, h.src, 0, mtu, 13, false)
			}), 0, 0, nil)
		}
		eng.Run()

		if p, tr := f.Outstanding(); p != 0 || tr != 0 || f.Held() != 0 {
			t.Fatalf("round %d: at quiescence %d packets and %d trains are not back on their free lists, %d hops held", r, p, tr, f.Held())
		}
		for _, h := range hs {
			for e, ok := h.cq.Poll(); ok; e, ok = h.cq.Poll() {
				switch e.Op {
				case verbs.OpRead:
					reads++
				case verbs.OpRecv:
					if e.QPN == h.ud.N {
						udRecvs++
					} else {
						sends++
					}
				case verbs.OpRecvWriteImm:
					writes++
				}
			}
		}
	}
	if f.TotalDropped == 0 || reads == 0 || udRecvs == 0 || writes == 0 || sends == 0 || f.ReducedChunks(rg) == 0 {
		t.Fatalf("void run: %d drops, %d reads, %d datagrams, %d writes, %d sends received, %d chunks reduced",
			f.TotalDropped, reads, udRecvs, writes, sends, f.ReducedChunks(rg))
	}
	var retransmits uint64
	for _, h := range hs {
		retransmits += h.rcOut.Retransmits
	}
	if retransmits == 0 {
		t.Fatal("void run: no RC retransmission")
	}
}
