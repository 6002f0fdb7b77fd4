package scenario

import (
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topology"
)

// --- channel selectors ------------------------------------------------------------

// Selector picks the directed channels an injector perturbs. Selectors run
// once, at installation time, drawing any randomness from the injector's
// private RNG stream and victims from the context's workload scope; an
// empty selection turns the injector into a no-op (e.g. spine selectors on
// a single-switch topology).
type Selector func(ctx *Context) []fabric.ChannelID

// nodeChannels returns every directed channel touching n, both directions.
func nodeChannels(f *fabric.Fabric, n topology.NodeID) []fabric.ChannelID {
	var out []fabric.ChannelID
	for id := 0; id < f.NumChannels(); id++ {
		from, to := f.ChannelEnds(fabric.ChannelID(id))
		if from == n || to == n {
			out = append(out, fabric.ChannelID(id))
		}
	}
	return out
}

// randomPair picks two distinct workload hosts; ok is false below two.
func randomPair(ctx *Context) (a, b topology.NodeID, ok bool) {
	hosts := ctx.Hosts()
	if len(hosts) < 2 {
		return 0, 0, false
	}
	i := ctx.RNG.Intn(len(hosts))
	j := ctx.RNG.Intn(len(hosts) - 1)
	if j >= i {
		j++
	}
	return hosts[i], hosts[j], true
}

// RandomSpine selects every channel (both directions) of one switch that
// actually carries workload traffic: the highest-level switch on the
// ECMP-pinned path between a random pair of workload hosts. Falling back
// to a random top-level switch when the scope has fewer than two hosts (on
// a star topology either way, the hub is the "spine").
func RandomSpine(ctx *Context) []fabric.ChannelID {
	g := ctx.F.Graph()
	if a, b, ok := randomPair(ctx); ok {
		var spine topology.NodeID = -1
		level := -1
		for _, id := range ctx.F.UnicastPath(a, b, ctx.RNG.Uint64()) {
			from, _ := ctx.F.ChannelEnds(id)
			if g.Nodes[from].Kind == topology.Switch && g.Nodes[from].Level > level {
				spine, level = from, g.Nodes[from].Level
			}
		}
		if spine >= 0 {
			return nodeChannels(ctx.F, spine)
		}
	}
	tops := g.TopSwitches()
	if len(tops) == 0 {
		return nil
	}
	return nodeChannels(ctx.F, tops[ctx.RNG.Intn(len(tops))])
}

// RandomLeafUplinks selects the switch-to-switch channels (both
// directions) of the leaf a random workload host hangs off: its uplinks
// into the aggregation layer. Empty on single-switch topologies.
func RandomLeafUplinks(ctx *Context) []fabric.ChannelID {
	hosts := ctx.Hosts()
	if len(hosts) == 0 {
		return nil
	}
	g := ctx.F.Graph()
	leaf := g.LeafOf(hosts[ctx.RNG.Intn(len(hosts))])
	var out []fabric.ChannelID
	for _, id := range nodeChannels(ctx.F, leaf) {
		from, to := ctx.F.ChannelEnds(id)
		if g.Nodes[from].Kind == topology.Switch && g.Nodes[to].Kind == topology.Switch {
			out = append(out, id)
		}
	}
	return out
}

// HostLinks returns a selector for the NIC links (both directions) of k
// random workload hosts.
func HostLinks(k int) Selector {
	return func(ctx *Context) []fabric.ChannelID {
		hosts := ctx.Hosts()
		if len(hosts) == 0 {
			return nil
		}
		if k < 1 {
			k = 1
		}
		if k > len(hosts) {
			k = len(hosts)
		}
		perm := ctx.RNG.Perm(len(hosts))
		var out []fabric.ChannelID
		for _, i := range perm[:k] {
			out = append(out, nodeChannels(ctx.F, hosts[i])...)
		}
		return out
	}
}

// --- injectors --------------------------------------------------------------------

// LinkDegrade scales the selected channels' bandwidth and adds latency at
// Start, restoring them after Duration (0 means for the rest of the run) —
// the slow-drift failure mode of a marginal cable or SerDes.
type LinkDegrade struct {
	Select       Selector
	Scale        float64  // bandwidth multiplier in (0, 1]; 0 leaves bandwidth alone
	ExtraLatency sim.Time // added per traversal
	Start        sim.Time
	Duration     sim.Time // 0 = permanent
}

// Install arms the degradation.
func (d LinkDegrade) Install(ctx *Context) {
	chans := d.Select(ctx)
	if len(chans) == 0 {
		return
	}
	ctx.After(d.Start, func() {
		for _, id := range chans {
			if d.Scale > 0 {
				ctx.F.SetBandwidthScale(id, d.Scale)
			}
			if d.ExtraLatency > 0 {
				ctx.F.SetExtraLatency(id, d.ExtraLatency)
			}
		}
		ctx.Perturbed()
		if d.Duration > 0 {
			ctx.After(d.Duration, func() {
				// Undo only what this injector applied: ClearOverrides
				// would also wipe a drop override a composed injector owns.
				for _, id := range chans {
					if d.Scale > 0 {
						ctx.F.SetBandwidthScale(id, 1)
					}
					if d.ExtraLatency > 0 {
						ctx.F.SetExtraLatency(id, 0)
					}
				}
				ctx.Restored()
			})
		}
	})
}

// LinkFlap takes the selected channels down — every traversal drops, as
// when a port is re-training — for Down out of every Period, starting at
// Start, with uniform [0, Jitter) noise on each onset.
type LinkFlap struct {
	Select Selector
	Start  sim.Time
	Period sim.Time
	Down   sim.Time
	Jitter sim.Time
}

// Install arms the flap cycle.
func (lf LinkFlap) Install(ctx *Context) {
	chans := lf.Select(ctx)
	if len(chans) == 0 || lf.Period <= 0 || lf.Down <= 0 || lf.Down >= lf.Period {
		return
	}
	jitter := func() sim.Time {
		if lf.Jitter <= 0 {
			return 0
		}
		return sim.Time(ctx.RNG.Intn(int(lf.Jitter)))
	}
	var onset func()
	onset = func() {
		// Snapshot what each channel had so the restore puts it back — a
		// composed hotspot's override must survive the flap cycle.
		prev := make([]float64, len(chans))
		for i, id := range chans {
			prev[i] = ctx.F.DropRateOverride(id)
			ctx.F.SetDropRate(id, 1)
		}
		ctx.Perturbed()
		ctx.After(lf.Down, func() {
			for i, id := range chans {
				ctx.F.SetDropRate(id, prev[i])
			}
			ctx.Restored()
		})
		ctx.After(lf.Period+jitter(), onset)
	}
	ctx.After(lf.Start+jitter(), onset)
}

// DropHotspot replaces the drop rate on the selected channels at Start,
// restoring the configured rate after Duration (0 = permanent): a localized
// BER hotspot for the reliability slow path to chew on.
type DropHotspot struct {
	Select   Selector
	Rate     float64
	Start    sim.Time
	Duration sim.Time // 0 = permanent
}

// Install arms the hotspot.
func (h DropHotspot) Install(ctx *Context) {
	chans := h.Select(ctx)
	if len(chans) == 0 || h.Rate <= 0 {
		return
	}
	ctx.After(h.Start, func() {
		prev := make([]float64, len(chans))
		for i, id := range chans {
			prev[i] = ctx.F.DropRateOverride(id)
			ctx.F.SetDropRate(id, h.Rate)
		}
		ctx.Perturbed()
		if h.Duration > 0 {
			ctx.After(h.Duration, func() {
				for i, id := range chans {
					ctx.F.SetDropRate(id, prev[i])
				}
				ctx.Restored()
			})
		}
	})
}

// Straggler slows a random subset of hosts: their NIC links lose bandwidth
// (Scale) and gain injection latency. When Rejitter is set, the extra
// latency is re-rolled uniformly in [0, ExtraLatency) every Rejitter,
// modeling compute/injection jitter rather than a constant slowdown.
type Straggler struct {
	// Fraction of hosts to afflict (at least one). Hosts overrides it with
	// an absolute count when positive.
	Fraction     float64
	Hosts        int
	Scale        float64 // bandwidth multiplier in (0, 1]; 0 leaves bandwidth alone
	ExtraLatency sim.Time
	Rejitter     sim.Time
}

// Install picks the stragglers and arms the jitter loop.
func (s Straggler) Install(ctx *Context) {
	hosts := ctx.Hosts()
	if len(hosts) == 0 {
		return
	}
	k := s.Hosts
	if k <= 0 {
		k = int(s.Fraction * float64(len(hosts)))
	}
	if k < 1 {
		k = 1
	}
	chans := HostLinks(k)(ctx)
	for _, id := range chans {
		if s.Scale > 0 {
			ctx.F.SetBandwidthScale(id, s.Scale)
		}
		if s.ExtraLatency > 0 {
			ctx.F.SetExtraLatency(id, s.ExtraLatency)
		}
	}
	ctx.Perturbed()
	if s.Rejitter <= 0 || s.ExtraLatency <= 0 {
		return
	}
	var tick func()
	tick = func() {
		d := sim.Time(ctx.RNG.Intn(int(s.ExtraLatency)))
		for _, id := range chans {
			ctx.F.SetExtraLatency(id, d)
		}
		ctx.Perturbed()
		ctx.After(s.Rejitter, tick)
	}
	ctx.After(s.Rejitter, tick)
}

// BackgroundTraffic is the multi-tenant neighbor: persistent unicast flows
// between random host pairs, each injecting packets at Load times the host
// link bandwidth through the fabric's background hook — occupying the same
// channels, serializers and switch buffers as the collective under test.
type BackgroundTraffic struct {
	Flows       int     // flow count; 0 = one per host
	Load        float64 // per-flow injection rate as a fraction of host link bandwidth
	PacketBytes int     // payload per packet; 0 = fabric MTU
	Start       sim.Time
	// Backoff is the tenant's congestion control: when the source uplink's
	// backlog exceeds it, the flow skips injections until the queue drains
	// below it again. Without this, a link oversubscribed by tenant plus
	// collective traffic grows its queue without bound and RC round-trip
	// times diverge. 0 selects DefaultBackoff; negative disables backoff.
	Backoff sim.Time
}

// DefaultBackoff bounds tenant-induced queueing at roughly the scale of an
// RC retransmission timeout's safety margin.
const DefaultBackoff = 50 * sim.Microsecond

// Install launches the flows with deterministically staggered phases.
func (b BackgroundTraffic) Install(ctx *Context) {
	hosts := ctx.Hosts()
	if len(hosts) < 2 || b.Load <= 0 {
		return
	}
	size := b.PacketBytes
	if size <= 0 || size > ctx.F.MaxPayload() {
		size = ctx.F.MaxPayload()
	}
	wire := float64(size + fabric.HeaderBytes)
	interval := sim.Time(wire / (ctx.F.Config().LinkBandwidth * b.Load) * 1e9)
	if interval < 1 {
		interval = 1
	}
	backoff := b.Backoff
	if backoff == 0 {
		backoff = DefaultBackoff
	}
	nflows := b.Flows
	if nflows <= 0 {
		nflows = len(hosts)
	}
	perm := ctx.RNG.Perm(len(hosts))
	for i := 0; i < nflows; i++ {
		src := hosts[i%len(hosts)]
		dst := hosts[perm[i%len(hosts)]]
		if dst == src {
			dst = hosts[(i+1)%len(hosts)]
		}
		// The flow's congestion signal is the worst queue anywhere on its
		// (ECMP-pinned) path — the scenario-level stand-in for ECN marks.
		flow := uint64(i)
		path := ctx.F.UnicastPath(src, dst, flow)
		var send func()
		send = func() {
			congested := false
			if backoff >= 0 {
				for _, id := range path {
					if ctx.F.ChannelBacklog(id) >= backoff {
						congested = true
						break
					}
				}
			}
			if !congested {
				ctx.F.InjectBackground(src, dst, size, flow)
			}
			ctx.After(interval, send)
		}
		ctx.After(b.Start+sim.Time(ctx.RNG.Intn(int(interval))), send)
	}
	ctx.Perturbed()
}

// Incast fires periodic many-to-one bursts: every Period, Fanin random
// sources each blast BurstBytes at one rotating victim host, back to back —
// the transient congestion signature the paper's §IV-A sequencer exists to
// avoid causing.
type Incast struct {
	Fanin      int
	BurstBytes int
	Period     sim.Time
	Start      sim.Time
}

// Install arms the burst cycle.
func (inc Incast) Install(ctx *Context) {
	hosts := ctx.Hosts()
	if inc.Fanin < 1 || inc.BurstBytes <= 0 || inc.Period <= 0 || len(hosts) < 2 {
		return
	}
	fanin := inc.Fanin
	if fanin > len(hosts)-1 {
		fanin = len(hosts) - 1
	}
	mtu := ctx.F.MaxPayload()
	var burst func()
	burst = func() {
		perm := ctx.RNG.Perm(len(hosts))
		victim := hosts[perm[0]]
		for s := 0; s < fanin; s++ {
			src := hosts[perm[1+s]]
			for sent := 0; sent < inc.BurstBytes; sent += mtu {
				n := inc.BurstBytes - sent
				if n > mtu {
					n = mtu
				}
				ctx.F.InjectBackground(src, victim, n, uint64(s))
			}
		}
		ctx.Perturbed()
		ctx.After(inc.Period, burst)
	}
	ctx.After(inc.Start, burst)
}
