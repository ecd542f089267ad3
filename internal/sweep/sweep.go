// Package sweep runs grids of independent simulation cells in parallel.
//
// Every figure and sensitivity study in the evaluation is a (system ×
// workload × traits) grid whose cells share nothing: each cell builds
// its own sim.Engine, machine and workload, so cells are bit-reproducible
// regardless of the goroutine they run on. The pool therefore only has
// to solve scheduling and deterministic collection: callers index their
// results by cell position, workers pull cell indices from a shared
// counter, and the first error (lowest cell index among the failures
// observed) cancels the remaining cells.
package sweep

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Progress receives live completion updates: done cells out of total.
// It is called from worker goroutines but never concurrently.
type Progress func(done, total int)

// CellPanic is the error a panicking cell is converted into: the pool
// must never let one cell's panic tear down the whole process (and, with
// it, the results of every other cell). Index is the cell, Value the
// recovered panic value and Stack the goroutine stack at recovery.
type CellPanic struct {
	Index int
	Value any
	Stack []byte
}

func (e *CellPanic) Error() string {
	return fmt.Sprintf("sweep: cell %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// runCell invokes fn(i), converting a panic into a *CellPanic error.
func runCell(i int, fn func(i int) error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = &CellPanic{Index: i, Value: rec, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// Map runs fn(i) for every i in [0, n) on up to workers goroutines
// (workers <= 0 selects runtime.GOMAXPROCS(0)) and blocks until all
// cells finish or one fails. On failure the remaining unstarted cells
// are skipped and the error of the lowest-indexed failed cell is
// returned — the same error a serial left-to-right run would surface,
// as long as failures are deterministic per cell.
//
// fn must be safe to call concurrently for distinct i; writing to
// result[i] of a pre-sized slice needs no extra synchronization.
func Map(workers, n int, progress Progress, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := runCell(i, fn); err != nil {
				return err
			}
			if progress != nil {
				progress(i+1, n)
			}
		}
		return nil
	}

	var (
		next     atomic.Int64 // next cell index to claim
		stop     atomic.Bool  // set once any cell fails
		mu       sync.Mutex   // guards done/firstIdx/firstErr and progress calls
		done     int
		firstIdx = n
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || stop.Load() {
					return
				}
				if err := runCell(i, fn); err != nil {
					stop.Store(true)
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					return
				}
				mu.Lock()
				done++
				if progress != nil {
					progress(done, n)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// MapAll is Map without early cancellation: every cell runs to the end
// whatever happens to its siblings, and the per-cell errors come back
// indexed by cell (all nil on full success). Soak runs use it so one bad
// cell cannot hide the results — or the failures — of the others.
func MapAll(workers, n int, progress Progress, fn func(i int) error) []error {
	errs := make([]error, n)
	if n <= 0 {
		return errs
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			errs[i] = runCell(i, fn)
			if progress != nil {
				progress(i+1, n)
			}
		}
		return errs
	}

	var (
		next atomic.Int64
		mu   sync.Mutex
		done int
		wg   sync.WaitGroup
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
				err := runCell(i, fn) // writing errs[i] needs no lock: one owner per index
				errs[i] = err
				mu.Lock()
				done++
				if progress != nil {
					progress(done, n)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return errs
}
