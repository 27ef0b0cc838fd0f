// Package pool is the sweep subsystem's worker pool: it schedules
// independent indexed jobs across a bounded set of goroutines. Every
// parallel fan-out in the repo (the Fig. 5 weight sweep, TPM
// training-sample collection, random-forest fitting, campaign
// execution) runs through this one code path, so cancellation and error
// semantics are uniform: each job stays single-threaded and
// deterministic — parallelism is only across jobs — and results must be
// written into index-addressed slots so no ordering leaks into output.
package pool

import (
	"runtime"
	"sync"

	"srcsim/internal/guard"
)

// Pool runs indexed jobs across bounded workers. The zero value is
// ready to use: GOMAXPROCS workers, no cancellation.
type Pool struct {
	// Workers bounds concurrency; <= 0 uses runtime.GOMAXPROCS(0).
	Workers int
	// Stop, when non-nil, is polled before each job starts: once fired,
	// unstarted jobs are skipped (ForEach still waits for in-flight jobs
	// to finish). Jobs that need finer-grained cancellation should also
	// observe the same Stopper internally (cluster runs do, via
	// Spec.Guard.Stop).
	Stop *guard.Stopper
}

// ForEach runs fn(i) for every i in [0, n), at most Workers at a time,
// and returns the lowest-index error (nil when every executed job
// succeeded). Errors do not cancel other jobs — every index is still
// attempted — so a deterministic job set yields a deterministic error
// regardless of scheduling. Callers using Stop must check
// Stop.Stopped() themselves to learn whether the set was cut short.
func (p Pool) ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				if p.Stop != nil && p.Stop.Stopped() {
					continue // drain without running
				}
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
