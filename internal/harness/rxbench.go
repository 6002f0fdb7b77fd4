// Package harness contains the kernels behind every table and figure of
// the paper's evaluation (§VI): the back-to-back receive-datapath
// microbenchmarks (Figures 5, 13, 14, 15, 16 and Table I), the at-scale
// collective runs on the 188-node testbed model (Figures 10, 11, 12), the
// analytic models (Figures 2, 7, §VII), and the Appendix B concurrent
// {Allgather, Reduce-Scatter} pairs.
//
// The experiments themselves are data: a manifest's sections name a
// kernel and list its sweep.Grid values, or a test or benchmark writes a
// sweep.Grid literal. A kernel (sweeps.go, costmodel.go) executes one grid
// point on internal/sweep's worker pool and returns a structured Record
// with its deterministic per-point seed. The repro subcommands, the tests
// and the Go benchmarks all read those Records.
package harness

import (
	"fmt"

	"repro/internal/dpa"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/verbs"
)

// rxLinkBandwidth is the back-to-back link of the microbenchmark in
// bytes/s (200 Gbit/s).
const rxLinkBandwidth = 25e9

// RxBenchConfig parameterizes the receive-datapath microbenchmark: the
// paper's DPA-testbed setup where an x86 client saturates the link with
// chunks across several connections (standing in for multicast trees) and
// the server's worker threads process them (§VI-C).
type RxBenchConfig struct {
	// Transport is verbs.UD (staging datapath) or verbs.UC (zero-copy).
	Transport verbs.Transport
	// Workers is the number of server worker threads, each bound to one
	// connection's completion queue.
	Workers int
	// ChunkBytes is the fragmentation unit (UD: <= MTU; UC: any).
	ChunkBytes int
	// TotalBytes is the receive-buffer volume to deliver (paper: 8 MiB).
	TotalBytes int
	// OnCPU runs workers on a host CPU model instead of the DPA.
	OnCPU bool
	// Seed for the simulation engine (defaults to 1).
	Seed uint64
}

// RxBenchResult reports the sustained datapath performance.
type RxBenchResult struct {
	Bps       float64 // payload bytes/second
	GiBps     float64
	Gbps      float64
	ChunkRate float64 // chunks/second processed
	Profile   dpa.Profile
	IPC       float64
	LinkGbps  float64
	LinkShare float64 // fraction of the link's payload rate sustained
	// Engine throughput counters for the run (deterministic counts).
	Events          uint64
	EventsScheduled uint64
}

// RunRxBench executes the microbenchmark and returns the measured result.
func RunRxBench(cfg RxBenchConfig) RxBenchResult {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Workers <= 0 || cfg.ChunkBytes <= 0 || cfg.TotalBytes <= 0 {
		panic("harness: invalid rxbench config")
	}
	g := topology.BackToBack()
	eng := sim.NewEngine(cfg.Seed)
	f := fabric.New(eng, g, fabric.Config{LinkBandwidth: rxLinkBandwidth})
	hosts := g.Hosts()

	chunks := (cfg.TotalBytes + cfg.ChunkBytes - 1) / cfg.ChunkBytes
	if chunks < cfg.Workers {
		cfg.Workers = chunks
	}
	perConn := (chunks + cfg.Workers - 1) / cfg.Workers

	// Deep receive queues so the measurement captures processing rate, not
	// RNR losses (the paper's sustained-rate methodology; 4 KiB chunks stay
	// under the BlueField RQ depth of 8192 anyway).
	vcfg := verbs.Config{RQDepth: perConn + 16}
	client := verbs.NewContext(f, hosts[0], vcfg)
	server := verbs.NewContext(f, hosts[1], vcfg)

	var chip *dpa.Chip
	if cfg.OnCPU {
		chip = dpa.NewCPU(eng, cfg.Workers)
	} else {
		chip = dpa.NewDPA(eng)
	}
	profile := dpa.RecvProfile(!cfg.OnCPU, cfg.Transport)
	threads := chip.AllocThreads(cfg.Workers)

	processed := 0
	var lastDone sim.Time
	srcMR := client.RegisterMR(cfg.TotalBytes)

	type conn struct {
		cliQP, srvQP *verbs.QP
		srvCQ        *verbs.CQ
		staging      *verbs.MR
	}
	conns := make([]*conn, cfg.Workers)
	mtu := f.MaxPayload()
	for w := 0; w < cfg.Workers; w++ {
		c := &conn{srvCQ: &verbs.CQ{}}
		cliCQ := &verbs.CQ{}
		if cfg.Transport == verbs.UD {
			if cfg.ChunkBytes > mtu {
				panic("harness: UD chunk exceeds MTU")
			}
			c.cliQP = client.NewQP(verbs.UD, cliCQ, cliCQ, 0)
			c.srvQP = server.NewQP(verbs.UD, c.srvCQ, c.srvCQ, perConn+16)
			c.staging = server.RegisterMR((perConn + 16) * cfg.ChunkBytes)
			for s := 0; s < perConn; s++ {
				c.srvQP.PostRecv(uint64(s), c.staging, s*cfg.ChunkBytes, cfg.ChunkBytes)
			}
		} else {
			c.cliQP = client.NewQP(verbs.UC, cliCQ, cliCQ, 0)
			c.srvQP = server.NewQP(verbs.UC, c.srvCQ, c.srvCQ, 0)
			c.cliQP.Connect(verbs.Unicast(server.Host, c.srvQP.N))
		}
		w := w
		dpa.NewWorker(eng, threads[w], profile).Serve(c.srvCQ, func(e verbs.CQE) {
			processed++
			lastDone = eng.Now()
			if cfg.Transport == verbs.UD {
				// Re-post the staging slot and book the staging->user copy.
				// Nothing waits for it, so its completion event is folded:
				// it keeps its sequence number and counts as fired.
				slot := int(e.WrID)
				conns[w].srvQP.PostRecv(e.WrID, conns[w].staging, slot*cfg.ChunkBytes, cfg.ChunkBytes)
				server.DMA().Book(e.Bytes)
				eng.Reserve(1)
				eng.Fold(1)
			}
		})
		conns[w] = c
	}
	dstMR := server.RegisterMR(cfg.TotalBytes)

	// Client: blast every chunk, striped across connections. The client
	// CPU is not the bottleneck (x86 posting rate >> wire), so posting is
	// not charged; the fabric serializes injection at link speed.
	for i := 0; i < chunks; i++ {
		w := i % cfg.Workers
		off := i * cfg.ChunkBytes
		length := cfg.TotalBytes - off
		if length > cfg.ChunkBytes {
			length = cfg.ChunkBytes
		}
		if cfg.Transport == verbs.UD {
			conns[w].cliQP.PostSendUD(0, verbs.Unicast(server.Host, conns[w].srvQP.N),
				srcMR, off, length, uint32(i), false)
		} else {
			conns[w].cliQP.PostWriteUC(0, srcMR, off, length, dstMR.Key, off, uint32(i), false)
		}
	}
	eng.Run()

	res := RxBenchResult{
		Profile:         profile,
		IPC:             profile.IPC(),
		Events:          eng.Executed,
		EventsScheduled: eng.Scheduled,
	}
	if processed != chunks {
		panic(fmt.Sprintf("harness: processed %d of %d chunks (RNR drops: %d)", processed, chunks, server.RNRDrops))
	}
	if lastDone > 0 {
		secs := lastDone.Seconds()
		res.Bps = float64(cfg.TotalBytes) / secs
		res.GiBps = res.Bps / (1 << 30)
		res.Gbps = res.Bps * 8 / 1e9
		res.ChunkRate = float64(chunks) / secs
	}
	res.LinkGbps = rxLinkBandwidth * 8 / 1e9
	payloadRate := rxLinkBandwidth * float64(cfg.ChunkBytes) / float64(cfg.ChunkBytes+fabric.HeaderBytes)
	res.LinkShare = res.Bps / payloadRate
	return res
}
