package solve

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"secureview/internal/secureview"
)

// Job is one unit of batch work: solve Problem with the named registered
// solver under Options (whose Timeout, if set, is the job's own deadline).
type Job struct {
	// Name tags the job in results (instance id, class/seed, ...).
	Name string
	// Problem is the instance; jobs may share one *Problem freely — every
	// registered solver treats it as read-only.
	Problem *secureview.Problem
	// Solver is the registry key.
	Solver string
	// Options configures the run; Options.Timeout is applied per job.
	Options Options
}

// JobResult pairs a job with its outcome.
type JobResult struct {
	Job    Job
	Result Result
	Err    error
	// Elapsed is the wall-clock time of the job's Solve call (zero for a
	// job failed before it started).
	Elapsed time.Duration
}

// SolveBatch runs the jobs over a pool of workers (0 = GOMAXPROCS) and
// returns results in job order. Each job gets its own deadline from its
// Options.Timeout on top of the batch context; cancelling ctx fails every
// job not yet started with ctx.Err() and interrupts the in-flight ones
// through the solvers' cancellation contract, so a batch drains promptly.
//
// Jobs only read their problems and the registry, so a batch may safely
// mix solvers, share problems between jobs, and run alongside other
// batches; pair it with a shared Session to also share derivation work.
func SolveBatch(ctx context.Context, jobs []Job, workers int) []JobResult {
	if len(jobs) == 0 {
		return nil // no workers, no result allocation
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	out := make([]JobResult, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				out[i].Job = jobs[i]
				if err := ctx.Err(); err != nil {
					out[i].Err = err
					continue
				}
				start := time.Now()
				out[i].Result, out[i].Err = Solve(ctx, jobs[i].Solver, jobs[i].Problem, jobs[i].Options)
				out[i].Elapsed = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return out
}
