package fabric

import (
	"strconv"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// This file is the fabric's telemetry surface: end-of-run export of the
// per-channel counters the fabric already keeps, plus the live gauges the
// virtual-time sampler reads. Everything here is off the packet hot path —
// the only per-packet cost telemetry adds to the fabric is the Busy
// accumulation in transmit, a single integer add paid identically whether
// telemetry is enabled or not.

// channelLabel renders the stable per-channel metric label:
// "ch=<id>:<from>-><to>".
func (f *Fabric) channelLabel(id int) string {
	ch := &f.chans[id]
	return "ch=" + strconv.Itoa(id) + ":" + strconv.Itoa(int(ch.from)) + "->" + strconv.Itoa(int(ch.to))
}

// CollectTelemetry exports the fabric's counters into reg: per-channel
// bytes, packets, drops, serialization busy-time and worst backlog for
// every channel that carried traffic (idle channels are skipped — a
// deterministic criterion — to keep metrics.json bounded on the 188-host
// testbed), plus fabric-wide totals. A nil registry is a no-op.
func (f *Fabric) CollectTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	for i := range f.chans {
		st := &f.chans[i].stats
		if st.Packets == 0 {
			continue
		}
		lbl := f.channelLabel(i)
		reg.Counter("fabric", "channel_bytes", lbl).Add(st.Bytes)
		reg.Counter("fabric", "channel_packets", lbl).Add(st.Packets)
		reg.Counter("fabric", "channel_busy_ns", lbl).Add(uint64(st.Busy))
		reg.Counter("fabric", "channel_max_backlog_ns", lbl).Add(uint64(st.MaxBacklog))
		if st.Drops > 0 {
			reg.Counter("fabric", "channel_drops", lbl).Add(st.Drops)
		}
	}
	reg.Counter("fabric", "wire_bytes_total", "").Add(f.TotalWireBytes())
	reg.Counter("fabric", "drops_total", "").Add(f.TotalDropped)
	reg.Counter("fabric", "bg_bytes_total", "").Add(f.BackgroundBytes)
}

// CurrentMaxBacklog reports the worst backlog across all channels right
// now: how far the most-booked serializer runs ahead of the clock. The
// sampler turns this into the fabric backlog gauge track.
func (f *Fabric) CurrentMaxBacklog() sim.Time {
	now := f.eng.Now()
	var max sim.Time
	for i := range f.chans {
		if d := f.chans[i].nextFree - now; d > max {
			max = d
		}
	}
	return max
}
