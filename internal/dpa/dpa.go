// Package dpa models the execution substrates that run the collective
// progress engine: the NVIDIA Datapath Accelerator (16 energy-efficient
// RISC-V cores at 1.8 GHz with 16 hardware threads each, §II-C) and a
// conventional server CPU core.
//
// The model captures the one property the paper's offloading argument rests
// on: the receive datapath is low-IPC data movement (posting RDMA receives,
// polling completions, bitmap updates), so a single thread spends most of
// its cycles stalled on loads/stores, and hardware multithreading can hide
// that latency — until the threads saturate either the core's issue
// pipeline or shared memory paths.
//
// Per completion (CQE) handled, a kernel profile charges:
//
//   - IssueCycles: instructions issued (single-issue core: one per cycle),
//     serialized across all threads of a core;
//   - LatencyCycles: the critical-path occupancy of the handling thread,
//     inflated by a contention factor as more threads share the core
//     (LLC/DRAM pressure from the staging copies).
//
// The DPA profiles reproduce Table I of the paper: UC 66 instructions /
// 598 cycles per CQE (IPC 0.11), UD 113 / 1084 (IPC 0.10) at 1.8 GHz.
package dpa

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/verbs"
)

// Profile is the cost model of one progress-engine code path, charged per
// completion queue entry handled.
type Profile struct {
	Name string
	// IssueCycles is the number of instructions (= issue slots on a
	// single-issue core) the handler executes.
	IssueCycles int
	// LatencyCycles is the handler's critical-path length including memory
	// stalls; always >= IssueCycles.
	LatencyCycles int
}

// IPC returns the single-thread instructions-per-cycle of the profile.
func (p Profile) IPC() float64 { return float64(p.IssueCycles) / float64(p.LatencyCycles) }

// Calibrated kernel profiles. DPA numbers are the paper's own measurements
// (Table I); CPU numbers are fitted so a single 2.6 GHz core sustains the
// fractions of a 200 Gbit/s link reported in Figures 5 and 13 (≈1/2 for the
// UD datapath with software reliability, ≈2/3 for the zero-copy RC chunk
// datapath without it).
var (
	// DPAUDRecv is the DPA UD receive kernel: poll CQE, bitmap update,
	// re-post receive, post staging->user DMA copy.
	DPAUDRecv = Profile{Name: "dpa-ud-recv", IssueCycles: 113, LatencyCycles: 1084}
	// DPAUCRecv is the DPA UC receive kernel: poll CQE, bitmap update,
	// re-post; no staging copy (zero-copy placement by the NIC).
	DPAUCRecv = Profile{Name: "dpa-uc-recv", IssueCycles: 66, LatencyCycles: 598}
	// CPUUDRecv is the single-threaded host datapath with software
	// segmentation/reassembly and reliability (the UCX baseline of Fig. 5).
	CPUUDRecv = Profile{Name: "cpu-ud-recv", IssueCycles: 800, LatencyCycles: 800}
	// CPURCRecv is the host datapath receiving MTU chunks over RC with no
	// software reliability layer (the custom baseline of Fig. 5).
	CPURCRecv = Profile{Name: "cpu-rc-recv", IssueCycles: 650, LatencyCycles: 650}
	// SendPost is the cost of posting one multicast send WQE (batched
	// doorbells amortized). Charged on the TX worker per chunk.
	SendPost = Profile{Name: "send-post", IssueCycles: 150, LatencyCycles: 234} // ~130ns @1.8GHz
	// TaskDispatch is the cost of dequeuing a task / signaling between the
	// application thread and a worker (C11 atomics path, §V-A).
	TaskDispatch = Profile{Name: "task-dispatch", IssueCycles: 120, LatencyCycles: 180}
)

// RecvProfile is the receive kernel for transport t on the DPA (onDPA) or
// a host CPU core: UD runs the staging datapath, UC and RC land zero-copy.
func RecvProfile(onDPA bool, t verbs.Transport) Profile {
	switch {
	case onDPA && t == verbs.UD:
		return DPAUDRecv
	case onDPA:
		return DPAUCRecv
	case t == verbs.UD:
		return CPUUDRecv
	default:
		return CPURCRecv
	}
}

// Chip is a processing element: a DPA complex or a CPU socket.
type Chip struct {
	eng *sim.Engine
	// Freq is the core clock in Hz.
	Freq float64
	// Contention inflates a handler's latency by Contention*(k-1) when k
	// threads are allocated on the same core, modeling shared LLC/DRAM
	// bandwidth. The value 0.10 makes the UD datapath reach line rate
	// between 8 and 16 threads and UC at 4, as in Figures 13/14.
	Contention float64
	cores      []core // Thread.core points into it
	name       string
}

type core struct {
	issueFree sim.Time
	allocated int // threads handed out on this core
	threads   int // hardware thread capacity
}

// NewDPA builds the BlueField-3 DPA complex: 16 cores x 16 hardware
// threads at 1.8 GHz.
func NewDPA(eng *sim.Engine) *Chip {
	return NewChip(eng, "dpa", 16, 16, 1.8e9, 0.10)
}

// NewCPU builds a host CPU with n single-threaded cores at 2.6 GHz (the
// AMD EPYC 7413 of the DPA testbed). Out-of-order cores hide their own
// memory latency, so profiles for CPUs set IssueCycles == LatencyCycles
// and contention is zero.
func NewCPU(eng *sim.Engine, n int) *Chip {
	return NewChip(eng, "cpu", n, 1, 2.6e9, 0)
}

// NewChip builds a custom processing element.
func NewChip(eng *sim.Engine, name string, cores, threadsPerCore int, freq, contention float64) *Chip {
	if cores <= 0 || threadsPerCore <= 0 || freq <= 0 {
		panic("dpa: invalid chip geometry")
	}
	c := &Chip{eng: eng, Freq: freq, Contention: contention, name: name, cores: make([]core, cores)}
	for i := range c.cores {
		c.cores[i].threads = threadsPerCore
	}
	return c
}

// Name returns the chip's name ("dpa", "cpu", ...).
func (c *Chip) Name() string { return c.name }

// Capacity returns the total number of hardware threads.
func (c *Chip) Capacity() int { return len(c.cores) * c.cores[0].threads }

// Thread is one allocated hardware execution context.
type Thread struct {
	chip     *Chip
	core     *core
	nextFree sim.Time
	// Handled counts completions processed; BusyCycles accumulates latency
	// cycles charged, for utilization and IPC reporting.
	Handled    uint64
	BusyCycles float64
	// IssueCyclesRetired accumulates instructions executed.
	IssueCyclesRetired float64
}

// Chip returns the processing element the thread executes on.
func (t *Thread) Chip() *Chip { return t.chip }

// AllocThreads hands out n hardware threads co-located compactly: the first
// 16 on core 0, the next 16 on core 1, and so on — the placement the paper
// uses to stress shared-core scaling ("first occupy 16 hardware threads of
// core 1, then core 2", §VI-C).
func (c *Chip) AllocThreads(n int) []*Thread {
	if n <= 0 {
		panic("dpa: AllocThreads with n <= 0")
	}
	out := make([]*Thread, 0, n)
	for i := range c.cores {
		co := &c.cores[i]
		for co.allocated < co.threads && len(out) < n {
			co.allocated++
			out = append(out, &Thread{chip: c, core: co})
		}
		if len(out) == n {
			return out
		}
	}
	panic(fmt.Sprintf("dpa: requested %d threads, chip capacity %d exhausted", n, c.Capacity()))
}

// cyclesToTime converts cycles at the chip clock to simulated time.
func (c *Chip) cyclesToTime(cycles float64) sim.Time {
	return sim.Time(cycles / c.Freq * 1e9)
}

// Run charges one handler execution to the thread, beginning no earlier
// than ready, and returns the completion time. Issue slots serialize across
// the owning core; latency inflates with the number of threads allocated on
// the core (shared memory-path contention).
func (t *Thread) Run(p Profile, ready sim.Time) sim.Time {
	return t.RunCycles(float64(p.IssueCycles), float64(p.LatencyCycles), ready)
}

// RunCycles charges a handler with explicit issue/latency cycle counts —
// used for data-dependent work such as per-byte reduction kernels.
func (t *Thread) RunCycles(issueCycles, latencyCycles float64, ready sim.Time) sim.Time {
	start := ready
	if t.nextFree > start {
		start = t.nextFree
	}
	if now := t.chip.eng.Now(); start < now {
		start = now
	}
	issueStart := start
	if t.core.issueFree > issueStart {
		issueStart = t.core.issueFree
	}
	t.core.issueFree = issueStart + t.chip.cyclesToTime(issueCycles)
	lat := float64(latencyCycles * (1 + float64(t.chip.Contention*float64(t.core.allocated-1))))
	t.nextFree = issueStart + t.chip.cyclesToTime(lat)
	t.Handled++
	t.BusyCycles += lat
	t.IssueCyclesRetired += issueCycles
	return t.nextFree
}

// Worker pumps completion queues through a hardware thread: each CQE costs
// one Profile execution, after which the queue's handler runs with the
// entry (protocol actions: bitmap update, re-post, DMA copy, completion
// checks). With one queue this is the simulated equivalent of the DOCA
// FlexIO event-handler kernel in Appendix C of the paper. With several it
// is the software traffic arbitration of §V-C: one thread serves the
// queues round-robin per entry, so a busy queue cannot starve one that
// becomes active.
type Worker struct {
	Thread  *Thread
	Profile Profile

	eng    *sim.Engine
	queues []queue
	first  [1]queue // backs queues until a second one is served
	// next is the queue polled first on the next round; int32 packs it
	// with inflight, keeping a worker in the allocator's 160-byte class.
	next     int32
	inflight bool
	// pending is the entry being serviced; only one is in flight at a time,
	// so the completion event carries just its queue index.
	pending verbs.CQE
	// armFn re-arms the queues; built once so draining does not allocate.
	armFn func()
	// Processed counts entries fully handled across all queues.
	Processed uint64
}

type queue struct {
	cq     *verbs.CQ
	handle func(e verbs.CQE)
}

// NewWorker binds a thread to a kernel profile; Serve gives it queues.
func NewWorker(eng *sim.Engine, th *Thread, p Profile) *Worker {
	w := &Worker{Thread: th, Profile: p, eng: eng}
	w.queues = w.first[:0]
	w.armFn = w.pump
	return w
}

// Serve adds a completion queue whose entries run handle (nil consumes
// them without a handler) and starts draining it. Queues are meant to be
// added at setup; adding one mid-flight is safe.
func (w *Worker) Serve(cq *verbs.CQ, handle func(e verbs.CQE)) {
	w.queues = append(w.queues, queue{cq: cq, handle: handle})
	w.pump()
}

// pump serves the next non-empty queue in round-robin order, or arms every
// queue and sleeps until one of them completes an entry.
func (w *Worker) pump() {
	if w.inflight {
		return
	}
	n := len(w.queues)
	for i := 0; i < n; i++ {
		k := int(w.next) + i
		if k >= n {
			k -= n
		}
		e, ok := w.queues[k].cq.Poll()
		if !ok {
			continue
		}
		w.next = int32(k + 1)
		if k+1 == n {
			w.next = 0
		}
		w.inflight = true
		w.pending = e
		done := w.Thread.Run(w.Profile, w.eng.Now())
		w.eng.AtHandler(done, w, uint64(k), 0, nil)
		return
	}
	for _, q := range w.queues {
		q.cq.Armed = w.armFn
	}
}

// OnEvent completes the in-flight entry's service time on queue arg0 and
// continues the pump.
func (w *Worker) OnEvent(_ *sim.Engine, _ sim.Handle, arg0 uint64, _ int, _ any) {
	w.inflight = false
	w.Processed++
	if h := w.queues[arg0].handle; h != nil {
		h(w.pending)
	}
	w.pump()
}
