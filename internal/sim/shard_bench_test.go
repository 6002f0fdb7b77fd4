package sim

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// benchPhold runs the PHOLD model (shard_test.go) at a given shard count
// for a fixed window of virtual time and reports aggregate events/sec plus
// events/sec-per-core, the machine-portable scaling figure. Hosts never
// exhaust inside the window, so the event population (and available
// parallelism) stays constant.
func benchPhold(b *testing.B, shards int) {
	const hosts = 256
	const window = Millisecond
	var events, epochs, stalls uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := newPhold(17, hosts, shards, math.MaxInt32)
		t.grp.RunUntil(window)
		events += t.grp.ExecutedTotal()
		epochs += t.grp.Epochs
		stalls += t.grp.Stalls
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds()
	b.ReportMetric(float64(events)/secs, "events/sec")
	b.ReportMetric(float64(events)/secs/float64(shards), "events/sec/core")
	// Informational barrier telemetry: how many lookahead epochs the window
	// took and how often a shard sat one out empty-handed.
	b.ReportMetric(float64(epochs)/float64(b.N), "epochs/op")
	b.ReportMetric(float64(stalls)/float64(b.N), "epoch-stalls/op")
}

func BenchmarkEngineParallel1(b *testing.B) { benchPhold(b, 1) }
func BenchmarkEngineParallel2(b *testing.B) { benchPhold(b, 2) }
func BenchmarkEngineParallel4(b *testing.B) { benchPhold(b, 4) }

// --- 16-host segment-pipelined ring allreduce -------------------------------

// Segment-pipelined ring allreduce: every segment makes 2*(hosts-1) hops
// (reduce-scatter then allgather); each hop runs a chain of local
// reduce/copy events on the owning host before forwarding the segment to
// the ring successor across shards. All per-segment state (hops left,
// chain position) travels in the event args, so hosts only ever mutate
// their own accumulator — the ownership discipline Sharded requires.
const (
	ringHosts    = 16
	ringLink     = 3 * Microsecond // cross-shard latency = lookahead
	ringSegments = 256
	ringChainLen = 8
	ringChainGap = 150 * Nanosecond
)

type ringHost struct {
	ring    *ringBench
	id      int
	acc     uint64
	ctr     uint64
	retired int // segments that completed their final hop here
}

type ringBench struct {
	grp     *Sharded
	hosts   [ringHosts]*ringHost
	shardOf [ringHosts]int
}

// arg1 encodes the segment's position: hops<<8 | chainRemaining, where
// chainRemaining==0 marks a fresh arrival that starts the local chain.
func (h *ringHost) OnEvent(e *Engine, _ Handle, arg0 uint64, arg1 int, _ any) {
	hops, chain := arg1>>8, arg1&0xFF
	if chain == 0 {
		e.AfterHandler(ringChainGap, h, arg0^uint64(h.id), hops<<8|ringChainLen, nil)
		return
	}
	h.acc = Splitmix64(h.acc ^ arg0 ^ uint64(e.Now()))
	if chain > 1 {
		e.AfterHandler(ringChainGap, h, arg0, hops<<8|(chain-1), nil)
		return
	}
	if hops == 0 {
		h.retired++
		return
	}
	next := h.ring.hosts[(h.id+1)%ringHosts]
	h.ctr++
	order := uint64(h.id)<<32 | h.ctr
	e.Send(h.ring.shardOf[next.id], e.Now()+ringLink, order, next, arg0, (hops-1)<<8, nil)
}

func runRingAllreduce(shards int) (events, epochs, stalls uint64) {
	g := NewSharded(29, shards, ringLink)
	r := &ringBench{grp: g}
	for i := 0; i < ringHosts; i++ {
		r.shardOf[i] = i * shards / ringHosts
		r.hosts[i] = &ringHost{ring: r, id: i}
	}
	// Inject the segments round-robin across hosts, staggered so the
	// pipeline fills: each makes 2*(hosts-1) hops around the ring.
	for s := 0; s < ringSegments; s++ {
		h := r.hosts[s%ringHosts]
		start := ringLink + Time(s/ringHosts)*ringChainGap
		g.Shard(r.shardOf[h.id]).Send(r.shardOf[h.id], start, uint64(s),
			h, uint64(s), 2*(ringHosts-1)<<8, nil)
	}
	g.Run()
	retired := 0
	for _, h := range r.hosts {
		retired += h.retired
	}
	if retired != ringSegments {
		panic(fmt.Sprintf("ring allreduce retired %d/%d segments", retired, ringSegments))
	}
	return g.ExecutedTotal(), g.Epochs, g.Stalls
}

// BenchmarkAllreduce16Shards times the 16-host ring allreduce at 4 shards
// and, untimed, at 1 shard; "speedup" is the same-machine parallel/serial
// throughput ratio. On a multi-core runner it measures true concurrent
// scaling; on a single-core runner (runtime.NumCPU()==1) only the
// partitioning efficiency — smaller per-shard scheduler queues minus
// barrier overhead — remains.
func BenchmarkAllreduce16Shards(b *testing.B) {
	const shards = 4
	var events, epochs, stalls uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, ep, st := runRingAllreduce(shards)
		events += ev
		epochs += ep
		stalls += st
	}
	b.StopTimer()
	parRate := float64(events) / b.Elapsed().Seconds()

	start := time.Now()
	var serialEvents uint64
	for i := 0; i < b.N; i++ {
		ev, _, _ := runRingAllreduce(1)
		serialEvents += ev
	}
	serialRate := float64(serialEvents) / time.Since(start).Seconds()

	b.ReportMetric(parRate, "events/sec")
	b.ReportMetric(parRate/shards, "events/sec/core")
	b.ReportMetric(parRate/serialRate, "speedup")
	b.ReportMetric(float64(epochs)/float64(b.N), "epochs/op")
	b.ReportMetric(float64(stalls)/float64(b.N), "epoch-stalls/op")
}
