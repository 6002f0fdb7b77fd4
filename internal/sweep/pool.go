package sweep

import (
	"errors"
	"runtime"
	"sort"
	"sync"
)

// Kernel is a sweep kernel factored the one way the executor needs: Build
// constructs a grid point's model stack, stopped at construction
// quiescence, and the Stack's Run is the continuation that executes the
// point on it. Key names what Build consumes, so that Run (the executor)
// can, on request, share one built stack between same-key points. Kernels
// run concurrently across the worker pool, so they must not share mutable
// state (each Build makes its own simulation engine).
type Kernel interface {
	// Key returns the shared-stack identity of a spec: points with equal
	// keys construct the same stack. It must cover everything Build
	// consumes except the point seed — if two specs with the same key
	// could construct differently (a partition gate, a telemetry gate),
	// the gate's outcome belongs in the key. An empty key opts the point
	// out of sharing.
	Key(Spec) string
	// Build constructs the stack for the spec (and, when shared, for every
	// spec of its key).
	Build(Spec) (Stack, error)
}

// Stack is one built model stack. A Stack is confined to a single worker,
// so it needs no locking.
type Stack interface {
	// Capture records the stack's current state as its fork point. After
	// Capture, every Run first rewinds the stack to that state and reseeds
	// it to the spec's seed, so the Record is byte for byte the one a
	// fresh Build of that spec followed by Run produces. The executor
	// calls it once, right after Build, and only on stacks it shares.
	Capture()
	// Run executes the spec's continuation on the stack.
	Run(Spec) (Record, error)
}

// Func is the plain-function kernel: one call executes one grid point end
// to end. As a Kernel it has nothing to share — Build hands back the
// function itself.
type Func func(Spec) (Record, error)

func (f Func) Key(Spec) string            { return "" }
func (f Func) Build(Spec) (Stack, error)  { return f, nil }
func (f Func) Capture()                   {}
func (f Func) Run(s Spec) (Record, error) { return f(s) }

// Run executes the kernel over every spec on a pool of worker goroutines —
// Build then Run per point — and returns the records in spec order; it is
// the execution half of the engine: expand a Grid, then Run the points.
// workers <= 0 selects GOMAXPROCS. Results are written into a slice by
// index, so the output — including which error is reported — is
// independent of worker count and scheduling; errors from distinct points
// are joined in index order. Remaining work still completes after an error
// (simulations are cheap to finish and aborting mid-engine has no benefit).
//
// With share set, same-key points that land on the same worker back to
// back reuse one built stack through its fork point instead of rebuilding
// it, and the points of a key are dispatched back to back (keys in order
// of first occurrence) so an interleaved spec list does not make a worker
// rebuild a stack it just dropped. Sharing changes speed only: by the
// Capture contract the records are byte-identical to the unshared run, at
// every worker count — which worker (and which spec) built a stack is
// unobservable. A worker keeps at most one stack alive, and a key that
// occurs once in specs is never captured.
func Run(specs []Spec, workers int, k Kernel, share bool) ([]Record, error) {
	n := len(specs)
	if n == 0 {
		return nil, nil
	}
	// keys[i] is the key spec i shares a stack under, "" when it runs on a
	// stack of its own: sharing is off, the kernel opted the point out, or
	// no other spec has its key (a fork point nobody forks is pure cost).
	// order is the dispatch order.
	keys := make([]string, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if share {
		first := make(map[string]int) // key -> index of its first spec
		for i, s := range specs {
			key := k.Key(s)
			if j, seen := first[key]; !seen {
				first[key] = i
			} else if key != "" {
				keys[i], keys[j] = key, key
			}
		}
		group := func(i int) int {
			if keys[i] == "" {
				return i
			}
			return first[keys[i]]
		}
		sort.SliceStable(order, func(a, b int) bool { return group(order[a]) < group(order[b]) })
	}
	out := make([]Record, n)
	errs := make([]error, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held worker
			for i := range work {
				rec, err := held.point(k, specs[i], keys[i])
				if err != nil {
					err = &PointError{Spec: specs[i], Err: err}
				}
				out[i], errs[i] = rec, err
			}
		}()
	}
	for _, i := range order {
		work <- i
	}
	close(work)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// worker is one pool goroutine's state: the single shared stack it keeps
// alive between points, and the key it was built for.
type worker struct {
	key   string
	stack Stack
}

// point runs one spec: on the held stack when the spec shares its key,
// otherwise on a fresh Build. key is "" for a point that shares nothing.
func (w *worker) point(k Kernel, s Spec, key string) (Record, error) {
	if key != "" && key == w.key {
		return w.stack.Run(s)
	}
	// Drop the held stack before building the next one, so two never
	// coexist; a failed build leaves nothing held, and the next same-key
	// point retries it and reports the same deterministic error.
	*w = worker{}
	st, err := k.Build(s)
	if err != nil {
		return Record{}, err
	}
	if key != "" {
		st.Capture()
		*w = worker{key: key, stack: st}
	}
	return st.Run(s)
}

// RunGrid expands the grid and runs it unshared: the one-call form drivers
// use.
func RunGrid(g Grid, workers int, k Kernel) ([]Record, error) {
	return Run(g.Expand(), workers, k, false)
}

// PointError attributes a kernel failure to its grid point.
type PointError struct {
	Spec Spec
	Err  error
}

func (e *PointError) Error() string { return "sweep: point " + e.Spec.String() + ": " + e.Err.Error() }

func (e *PointError) Unwrap() error { return e.Err }
