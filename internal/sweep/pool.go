package sweep

import (
	"errors"
	"runtime"
	"sync"
)

// Func is a sweep kernel: one call executes one grid point end to end,
// building whatever model stack the point needs and running it. Kernels run
// concurrently across the worker pool, so they must not share mutable
// state (each call makes its own simulation engine).
type Func func(Spec) (Record, error)

// Run executes the kernel over every spec on a pool of worker goroutines
// and returns the records in spec order; it is the execution half of the
// engine: expand a Grid, then Run the points. workers <= 0 selects
// GOMAXPROCS. Results are written into a slice by index, so the output —
// including which error is reported — is independent of worker count and
// scheduling; errors from distinct points are joined in index order.
// Remaining work still completes after an error (simulations are cheap to
// finish and aborting mid-engine has no benefit).
func Run(specs []Spec, workers int, k Func) ([]Record, error) {
	n := len(specs)
	if n == 0 {
		return nil, nil
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
			for i := range work {
				rec, err := k(specs[i])
				if err != nil {
					err = &PointError{Spec: specs[i], Err: err}
				}
				out[i], errs[i] = rec, err
			}
		}()
	}
	for i := range specs {
		work <- i
	}
	close(work)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// PointError attributes a kernel failure to its grid point.
type PointError struct {
	Spec Spec
	Err  error
}

func (e *PointError) Error() string { return "sweep: point " + e.Spec.String() + ": " + e.Err.Error() }

func (e *PointError) Unwrap() error { return e.Err }
