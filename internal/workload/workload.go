// Package workload is the declarative application layer of the simulation:
// a deterministic DAG of steps — compute phases charged on the cluster's
// host-CPU model, collective phases dispatched through the algorithm
// registry — executed by any number of concurrent jobs on one fabric. It is
// the subsystem behind the paper's headline scenario (§II-A, Appendix B):
// an FSDP training step whose layer-(i+1) Allgather prefetch and layer-i
// gradient Reduce-Scatter overlap both with compute and with each other,
// contending for the same injection bandwidth.
//
// A Workload is data, not code. Each Job names its host subset, declares
// its communicators (Comm: one persistent registry algorithm instance per
// stream, as a framework would pin collectives to a communication stream)
// and its phases. A Phase is either compute (a duration executed on a CPU
// thread of the job's lead host) or a collective (an Op issued on a Comm);
// explicit After edges order phases, and phases sharing a Comm serialize
// FIFO in ready order — exactly how frameworks enqueue collectives on a
// stream. Run executes the DAG to completion and reports step time,
// per-phase spans, and the achieved communication/computation overlap.
//
// Determinism is inherited from the engine: comms are instantiated and
// ready phases issued in declaration order, ties in readiness resolve by
// declaration index, and nothing consumes engine randomness, so the same
// workload on the same seed reproduces bit-identical timings.
package workload

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/dpa"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Comm declares one communicator of a job: a named serial stream bound to a
// persistent registry algorithm instance. Phases referencing the Comm
// serialize on it; distinct Comms of one job run concurrently and contend
// for the shared per-host NICs and CPUs.
type Comm struct {
	// Name is the stream key phases reference.
	Name string
	// Algorithm is the registry name ("mcast-allgather", ...).
	Algorithm string
	// Options tunes the algorithm. Hosts is filled from the job at start
	// time and must be left nil here.
	Options registry.Options
}

// Phase is one step of the DAG: either compute (Compute > 0) or a
// collective operation on a declared Comm (Comm != "").
type Phase struct {
	// Name identifies the phase within its job (unique, required).
	Name string
	// After lists phase names that must complete before this one starts.
	// Phases sharing a Comm are additionally serialized by the stream.
	After []string
	// Compute is the phase's duration on the job's CPU thread.
	Compute sim.Time
	// Comm names the communicator a collective phase runs on.
	Comm string
	// Op is the collective kind; empty derives it from the Comm's
	// algorithm name ("ring-allgather" -> allgather).
	Op collective.Kind
	// Bytes is the per-rank payload of a collective phase.
	Bytes int
	// Root is the broadcasting rank (broadcast only).
	Root int
}

// Job is one application sharing the fabric: a host subset, its
// communicators, and its phase DAG.
type Job struct {
	// Name identifies the job (unique within the workload, required).
	Name string
	// Hosts pins the job to explicit endpoints. Nil selects
	// HostCount hosts starting at HostOffset from the cluster's host list
	// (HostCount 0 = all remaining), so declarations stay portable across
	// fabrics.
	Hosts []topology.NodeID
	// HostOffset/HostCount select the job's slice of the cluster host list
	// when Hosts is nil.
	HostOffset int
	HostCount  int
	// Comms declares the job's communicators.
	Comms []Comm
	// Phases is the DAG, in declaration order (the deterministic
	// tie-breaker for simultaneous readiness).
	Phases []Phase
}

// Workload is a set of concurrent jobs executed on one fabric.
type Workload struct {
	Name string
	Jobs []Job
	// OnSpan, when set, is invoked at every phase completion — inside the
	// engine run, at the phase's virtual completion time — with the
	// recorded span and, for collective phases, the comm's persistent
	// algorithm instance (nil for compute). It is the hook for
	// per-operation work that cannot wait for the final Report, e.g.
	// verifying each payload before the next operation reuses the buffers.
	// Observers must not mutate engine state.
	OnSpan func(Span, collective.Algorithm)
}

// MinHosts returns the number of cluster hosts the workload's host slices
// require (explicit Hosts lists aside).
func (w Workload) MinHosts() int {
	need := 0
	for _, j := range w.Jobs {
		if j.Hosts != nil {
			continue
		}
		n := j.HostOffset + j.HostCount
		if j.HostCount == 0 {
			n = j.HostOffset + 1
		}
		if n > need {
			need = n
		}
	}
	return need
}

// Span is the recorded execution of one phase.
type Span struct {
	Job   string `json:"job"`
	Phase string `json:"phase"`
	// Comm is the stream of a collective span; empty for compute.
	Comm string `json:"comm,omitempty"`
	// Start is when the phase was issued (compute begins / collective
	// posted); End is its completion time.
	Start sim.Time `json:"start_ns"`
	End   sim.Time `json:"end_ns"`
	// Result is the unified collective outcome; nil for compute spans.
	Result *collective.Result `json:"-"`
}

// Duration returns the span's length.
func (s Span) Duration() sim.Time { return s.End - s.Start }

// JobReport summarizes one job's execution.
type JobReport struct {
	Name string
	// Start/End bound the job's spans.
	Start, End sim.Time
	// CommBusy is the summed duration of collective spans (overlapping
	// streams count twice — it measures communication work, not elapsed
	// time).
	CommBusy sim.Time
	// ComputeBusy is the union of compute intervals (the elapsed time at
	// least one compute phase was running).
	ComputeBusy sim.Time
	// Spans lists every phase execution in completion order.
	Spans []Span
}

// StepTime is the job's end-to-end duration.
func (j *JobReport) StepTime() sim.Time { return j.End - j.Start }

// Exposed is the communication time not hidden behind compute: the part of
// the step that is neither compute nor idle-free — step time minus the
// compute-busy union, clamped at zero.
func (j *JobReport) Exposed() sim.Time {
	e := j.StepTime() - j.ComputeBusy
	if e < 0 {
		return 0
	}
	return e
}

// OverlapFrac is the fraction of communication work hidden behind compute
// or other communication: 1 - Exposed/CommBusy, clamped to [0,1]. Jobs with
// no communication report 0.
func (j *JobReport) OverlapFrac() float64 {
	if j.CommBusy <= 0 {
		return 0
	}
	f := 1 - float64(j.Exposed())/float64(j.CommBusy)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// Report is the outcome of one workload run.
type Report struct {
	// Start/End bound every span across jobs.
	Start, End sim.Time
	// Jobs reports per-job results, in declaration order.
	Jobs []JobReport
	// Algorithms exposes the persistent communicator instances, keyed
	// "job/comm", for post-run verification (Verifier) or reuse.
	Algorithms map[string]collective.Algorithm
}

// Job returns the named job's report, or nil.
func (r *Report) Job(name string) *JobReport {
	for i := range r.Jobs {
		if r.Jobs[i].Name == name {
			return &r.Jobs[i]
		}
	}
	return nil
}

// Span is the elapsed virtual time across all jobs.
func (r *Report) Span() sim.Time { return r.End - r.Start }

// --- execution engine ------------------------------------------------------------

// phaseState tracks one phase through the run.
type phaseState struct {
	job     *jobState
	idx     int // declaration index within the job
	def     Phase
	waiting int // unmet dependencies
	issued  bool
	span    Span
	done    bool
	succ    []*phaseState // phases whose After names this one
}

// commState is one serial stream: its algorithm instance and FIFO queue.
type commState struct {
	name  string
	alg   collective.Algorithm
	queue []*phaseState
	busy  bool
}

type jobState struct {
	def    Job
	hosts  []topology.NodeID
	comms  map[string]*commState
	order  []*commState  // declaration order, for deterministic teardown
	states []*phaseState // phase states, declaration order
	thread *dpa.Thread   // lazily allocated compute thread (lead host CPU)
	left   int           // phases not yet done
	rep    JobReport
	// computeIv accumulates compute intervals for the busy-union metric.
	computeIv []Span
}

// Pending is a started workload: the caller drives the engine (directly or
// through scenario-composed slices) and finalizes with Report.
type Pending struct {
	cl   *cluster.Cluster
	eng  *sim.Engine
	w    Workload
	jobs []*jobState
	left int
	err  error
}

// Start validates the workload, instantiates every communicator (in
// declaration order), and issues the initially-ready phases. The caller
// drives the engine to completion and then calls Report.
func Start(cl *cluster.Cluster, w Workload) (*Pending, error) {
	if len(w.Jobs) == 0 {
		return nil, fmt.Errorf("workload: %q has no jobs", w.Name)
	}
	p := &Pending{cl: cl, eng: cl.Fabric().Engine(), w: w}
	all := cl.Fabric().Graph().Hosts()
	seenJobs := map[string]bool{}
	for ji := range w.Jobs {
		j := &w.Jobs[ji]
		if j.Name == "" || seenJobs[j.Name] {
			return nil, fmt.Errorf("workload: job %d needs a unique name (got %q)", ji, j.Name)
		}
		seenJobs[j.Name] = true
		hosts, err := resolveHosts(j, all)
		if err != nil {
			return nil, fmt.Errorf("workload: job %s: %w", j.Name, err)
		}
		js := &jobState{def: *j, hosts: hosts, comms: map[string]*commState{}}
		js.rep.Name = j.Name
		for _, c := range j.Comms {
			if c.Name == "" {
				return nil, fmt.Errorf("workload: job %s: comm needs a name", j.Name)
			}
			if _, dup := js.comms[c.Name]; dup {
				return nil, fmt.Errorf("workload: job %s: duplicate comm %q", j.Name, c.Name)
			}
			opts := c.Options
			if opts.Hosts != nil {
				return nil, fmt.Errorf("workload: job %s comm %s: set hosts on the job, not the comm", j.Name, c.Name)
			}
			opts.Hosts = hosts
			alg, err := registry.New(cl, c.Algorithm, opts)
			if err != nil {
				return nil, fmt.Errorf("workload: job %s comm %s: %w", j.Name, c.Name, err)
			}
			cs := &commState{name: c.Name, alg: alg}
			js.comms[c.Name] = cs
			js.order = append(js.order, cs)
		}
		if err := p.buildPhases(js); err != nil {
			return nil, err
		}
		p.jobs = append(p.jobs, js)
		p.left += len(js.def.Phases)
	}
	if p.left == 0 {
		return nil, fmt.Errorf("workload: %q has no phases", w.Name)
	}
	// Issue every initially-ready phase, jobs and phases in declaration
	// order — the deterministic t=0 schedule.
	for _, js := range p.jobs {
		for _, ph := range js.states {
			if ph.waiting == 0 {
				p.ready(ph)
			}
		}
	}
	return p, nil
}

// buildPhases validates the job's DAG and wires dependency edges.
func (p *Pending) buildPhases(js *jobState) error {
	j := &js.def
	byName := map[string]*phaseState{}
	js.states = make([]*phaseState, len(j.Phases))
	for i, def := range j.Phases {
		if def.Name == "" {
			return fmt.Errorf("workload: job %s: phase %d needs a name", j.Name, i)
		}
		if byName[def.Name] != nil {
			return fmt.Errorf("workload: job %s: duplicate phase %q", j.Name, def.Name)
		}
		isCompute, isColl := def.Compute > 0, def.Comm != ""
		if isCompute == isColl {
			return fmt.Errorf("workload: job %s phase %s: exactly one of Compute or Comm is required", j.Name, def.Name)
		}
		if isColl {
			cs := js.comms[def.Comm]
			if cs == nil {
				return fmt.Errorf("workload: job %s phase %s: unknown comm %q", j.Name, def.Name, def.Comm)
			}
			if def.Bytes <= 0 {
				return fmt.Errorf("workload: job %s phase %s: collective needs positive Bytes", j.Name, def.Name)
			}
			if def.Op == "" {
				kind, err := collective.KindOfAlgorithm(cs.alg.Name())
				if err != nil {
					return fmt.Errorf("workload: job %s phase %s: %w (set Phase.Op)", j.Name, def.Name, err)
				}
				def.Op = kind
			}
		}
		ps := &phaseState{job: js, idx: i, def: def}
		js.states[i] = ps
		byName[def.Name] = ps
	}
	for _, ps := range js.states {
		for _, dep := range ps.def.After {
			d := byName[dep]
			if d == nil {
				return fmt.Errorf("workload: job %s phase %s: unknown dependency %q", j.Name, ps.def.Name, dep)
			}
			d.succ = append(d.succ, ps)
			ps.waiting++
		}
	}
	// Cycle check: Kahn's count over the dependency edges.
	indeg := make([]int, len(js.states))
	var q []*phaseState
	for i, ps := range js.states {
		indeg[i] = ps.waiting
		if indeg[i] == 0 {
			q = append(q, ps)
		}
	}
	seen := 0
	for len(q) > 0 {
		ps := q[0]
		q = q[1:]
		seen++
		for _, s := range ps.succ {
			indeg[s.idx]--
			if indeg[s.idx] == 0 {
				q = append(q, s)
			}
		}
	}
	if seen != len(js.states) {
		return fmt.Errorf("workload: job %s: dependency cycle among phases", j.Name)
	}
	js.left = len(js.states)
	return nil
}

// resolveHosts maps a job onto concrete endpoints.
func resolveHosts(j *Job, all []topology.NodeID) ([]topology.NodeID, error) {
	if j.Hosts != nil {
		if len(j.Hosts) == 0 {
			return nil, fmt.Errorf("empty host list")
		}
		return j.Hosts, nil
	}
	if j.HostOffset < 0 || j.HostOffset >= len(all) {
		return nil, fmt.Errorf("host offset %d outside cluster (%d hosts)", j.HostOffset, len(all))
	}
	rest := all[j.HostOffset:]
	if j.HostCount == 0 {
		return rest, nil
	}
	if j.HostCount > len(rest) {
		return nil, fmt.Errorf("host slice [%d,%d) outside cluster (%d hosts)",
			j.HostOffset, j.HostOffset+j.HostCount, len(all))
	}
	return rest[:j.HostCount], nil
}

// ready dispatches a phase whose dependencies are met.
func (p *Pending) ready(ps *phaseState) {
	if p.err != nil || ps.issued {
		return
	}
	if ps.def.Compute > 0 {
		p.startCompute(ps)
		return
	}
	cs := ps.job.comms[ps.def.Comm]
	cs.queue = append(cs.queue, ps)
	p.kick(cs)
}

// startCompute charges the phase's duration on the job's CPU thread: jobs
// co-located on one core (cluster capacity permitting, each job gets its
// own) contend through the chip's issue serialization, so oversubscribed
// tenants slow each other down exactly as the dpa model dictates.
func (p *Pending) startCompute(ps *phaseState) {
	ps.issued = true
	js := ps.job
	if js.thread == nil {
		js.thread = p.cl.Node(js.hosts[0]).CPU.AllocThreads(1)[0]
	}
	now := p.eng.Now()
	ps.span = Span{Job: js.def.Name, Phase: ps.def.Name, Start: now}
	cycles := float64(ps.def.Compute) * js.thread.Chip().Freq / 1e9
	done := js.thread.RunCycles(cycles, cycles, now)
	p.eng.AtHandler(done, p, 0, 0, ps)
}

// OnEvent completes a compute phase (obj) when its cycles have run.
func (p *Pending) OnEvent(_ *sim.Engine, _ sim.Handle, _ uint64, _ int, obj any) {
	p.phaseDone(obj.(*phaseState), nil)
}

// kick issues the next queued collective on an idle stream.
func (p *Pending) kick(cs *commState) {
	if p.err != nil || cs.busy || len(cs.queue) == 0 {
		return
	}
	ps := cs.queue[0]
	cs.queue = cs.queue[1:]
	cs.busy = true
	ps.issued = true
	js := ps.job
	ps.span = Span{Job: js.def.Name, Phase: ps.def.Name, Comm: cs.name, Start: p.eng.Now()}
	op := collective.Op{Kind: ps.def.Op, Bytes: ps.def.Bytes, Root: ps.def.Root}
	starter, ok := cs.alg.(collective.Starter)
	if !ok {
		p.fail(fmt.Errorf("workload: job %s comm %s: %s cannot run non-blocking", js.def.Name, cs.name, cs.alg.Name()))
		return
	}
	if err := starter.Start(op, func(res *collective.Result) {
		cs.busy = false
		p.phaseDone(ps, res)
		p.kick(cs)
	}); err != nil {
		p.fail(fmt.Errorf("workload: job %s phase %s: %w", js.def.Name, ps.def.Name, err))
	}
}

// phaseDone records the span and releases successors.
func (p *Pending) phaseDone(ps *phaseState, res *collective.Result) {
	if p.err != nil || ps.done {
		return
	}
	ps.done = true
	ps.span.End = p.eng.Now()
	ps.span.Result = res
	js := ps.job
	js.rep.Spans = append(js.rep.Spans, ps.span)
	var alg collective.Algorithm
	if ps.def.Comm != "" {
		js.rep.CommBusy += ps.span.Duration()
		alg = js.comms[ps.def.Comm].alg
	} else {
		js.computeIv = append(js.computeIv, ps.span)
	}
	if p.w.OnSpan != nil {
		p.w.OnSpan(ps.span, alg)
	}
	js.left--
	p.left--
	for _, s := range ps.succ {
		s.waiting--
		if s.waiting == 0 {
			p.ready(s)
		}
	}
}

// fail records the first error and stops issuing work.
func (p *Pending) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// Done reports whether every phase has completed.
func (p *Pending) Done() bool { return p.left == 0 }

// Err returns the first issue error, if any.
func (p *Pending) Err() error { return p.err }

// Report finalizes the run. It errors when phases never completed (a
// deadlocked or cut-short run) or when issuing failed.
func (p *Pending) Report() (*Report, error) {
	if p.err != nil {
		return nil, p.err
	}
	if p.left != 0 {
		return nil, fmt.Errorf("workload: %q: %d phases never completed", p.w.Name, p.left)
	}
	rep := &Report{Algorithms: map[string]collective.Algorithm{}}
	first := true
	for _, js := range p.jobs {
		finalizeJob(js)
		rep.Jobs = append(rep.Jobs, js.rep)
		for _, cs := range js.order {
			rep.Algorithms[js.def.Name+"/"+cs.name] = cs.alg
		}
		if first || js.rep.Start < rep.Start {
			rep.Start = js.rep.Start
		}
		if first || js.rep.End > rep.End {
			rep.End = js.rep.End
		}
		first = false
	}
	return rep, nil
}

// finalizeJob computes the job's bounds and the compute-busy union.
func finalizeJob(js *jobState) {
	r := &js.rep
	for i, s := range r.Spans {
		if i == 0 || s.Start < r.Start {
			r.Start = s.Start
		}
		if i == 0 || s.End > r.End {
			r.End = s.End
		}
	}
	// Union of compute intervals: sort by start, merge overlaps.
	iv := js.computeIv
	sort.Slice(iv, func(a, b int) bool { return iv[a].Start < iv[b].Start })
	var busy sim.Time
	var curEnd sim.Time
	started := false
	var curStart sim.Time
	for _, s := range iv {
		if !started || s.Start > curEnd {
			if started {
				busy += curEnd - curStart
			}
			curStart, curEnd = s.Start, s.End
			started = true
		} else if s.End > curEnd {
			curEnd = s.End
		}
	}
	if started {
		busy += curEnd - curStart
	}
	r.ComputeBusy = busy
}

// Run starts the workload, drives the engine until it drains, and returns
// the finalized report — the blocking entry point for quiet fabrics. (Under
// an installed scenario use Start and drive the engine in bounded slices;
// persistent injectors keep the queue alive forever.)
func Run(cl *cluster.Cluster, w Workload) (*Report, error) {
	p, err := Start(cl, w)
	if err != nil {
		return nil, err
	}
	cl.Fabric().Engine().Run()
	return p.Report()
}
