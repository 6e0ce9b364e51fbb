package experiment

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/microslicedcore/microsliced/internal/obs"
)

// Every scenario simulation is single-threaded and builds its entire world —
// clock, hypervisor, guests, RNGs — from scratch inside Run, so scenarios
// are embarrassingly parallel across a grid. RunAll exploits that with a
// bounded worker pool while keeping results order-preserving and therefore
// bit-for-bit identical to a serial loop.

// parallelism holds the configured worker count (0 = GOMAXPROCS), read and
// written atomically so tests and cmd flags can adjust it at any time.
var parallelism atomic.Int64

// SetParallelism sets the worker count used by RunAll and the grid
// generators. n <= 0 restores the default (GOMAXPROCS).
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism.Store(int64(n))
}

// Parallelism returns the effective worker count.
func Parallelism() int {
	if n := int(parallelism.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// defaultObs, when set, is applied to every Setup whose Obs field is nil, so
// a command-line flag can light up telemetry across entire scenario grids
// without touching each generator. Read/written atomically: grids run on the
// worker pool.
var defaultObs atomic.Pointer[obs.Config]

// SetDefaultObs installs (or, with nil, removes) the process-wide default
// observability config consulted by Run when Setup.Obs is nil.
func SetDefaultObs(cfg *obs.Config) { defaultObs.Store(cfg) }

// runHook, when set, fires after every successful Run with its post-run
// view. Callers needing mutual exclusion (e.g. printing) synchronize inside
// the hook; Run invokes it from whichever worker goroutine executed the
// scenario.
var runHook atomic.Pointer[func(*PostRun)]

// SetRunHook installs (or, with nil, removes) a callback observing every
// completed scenario. The experiment grids stay oblivious; paperbench uses
// this for its per-scenario telemetry read-out.
func SetRunHook(fn func(*PostRun)) {
	if fn == nil {
		runHook.Store(nil)
		return
	}
	runHook.Store(&fn)
}

// checkHook, when set, runs as a post-run check after every Run, in
// addition to any per-Setup PostCheck. A returned error fails the Run.
// paperbench -check installs the conservation checker here so every
// scenario of every grid is audited without touching the generators.
var checkHook atomic.Pointer[func(*PostRun) error]

// SetCheckHook installs (or, with nil, removes) the process-wide post-run
// check consulted by Run after every scenario.
func SetCheckHook(fn func(*PostRun) error) {
	if fn == nil {
		checkHook.Store(nil)
		return
	}
	checkHook.Store(&fn)
}

// parallelDo invokes f(0), ..., f(n-1) on a bounded worker pool and waits
// for all of them. With one effective worker it degenerates to an in-order
// serial loop with fail-fast. Otherwise indices are handed out through an
// atomic counter; on failure the error with the lowest index wins (every
// index below the current error still runs, so the returned error is
// deterministic regardless of goroutine interleaving) and higher indices
// are skipped.
func parallelDo(n int, f func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := Parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
		errIdx   = n
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				mu.Lock()
				skip := firstErr != nil && i > errIdx
				mu.Unlock()
				if skip {
					continue
				}
				if err := f(i); err != nil {
					mu.Lock()
					if i < errIdx {
						firstErr, errIdx = err, i
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// JobResult is one Setup's settled outcome: exactly one of Result and Err
// is non-nil.
type JobResult struct {
	Result *Result
	Err    error
}

// RunAllSettled executes every Setup on the worker pool with per-job
// isolation: a failing (or panicking — Run recovers panics into errors)
// job yields an error JobResult and never prevents its siblings from
// completing. Results are order-preserving.
func RunAllSettled(setups []Setup) []JobResult {
	out := make([]JobResult, len(setups))
	parallelDo(len(setups), func(i int) error {
		r, err := Run(setups[i])
		out[i] = JobResult{Result: r, Err: err}
		return nil // errors are settled per job, never propagated
	})
	return out
}

// RunAll executes every Setup on the worker pool and returns the results in
// input order. On error it returns nil results and the error of the
// lowest-index failing Setup (every job still runs to completion).
func RunAll(setups []Setup) ([]*Result, error) {
	settled := RunAllSettled(setups)
	results := make([]*Result, len(setups))
	for i, jr := range settled {
		if jr.Err != nil {
			return nil, jr.Err
		}
		results[i] = jr.Result
	}
	return results, nil
}
