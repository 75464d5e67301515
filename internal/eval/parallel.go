// Parallel sweep execution.
//
// Every sweep in this package is a grid of independent cells — a
// (scenario, seed) pair, a (strategy, conns, repeat) triple — and every
// cell builds its own private simtime.Scheduler and proc.Cluster.
// Nothing observable crosses cell boundaries: the only package-level
// mutable state touched by a simulation is the migration behavior
// registry, which is mutex-guarded and whose token values are opaque
// fixed-width map keys that never influence packet lengths, audits or
// trace hashes. Cells are therefore safe to run on worker goroutines,
// and — because results are merged back in canonical cell order — the
// parallel sweep is bit-identical to the serial one. The chaos and
// failover batteries pin that equivalence in a test.
package eval

import (
	"runtime"
	"sync"
	"sync/atomic"

	"dvemig/internal/simprof"
)

// RunParallel runs fn over every cell on up to workers goroutines and
// returns the results in canonical cell order (results[i] corresponds
// to cells[i], regardless of which worker ran it or when it finished).
//
// workers <= 0 selects GOMAXPROCS; workers == 1 degenerates to a plain
// serial loop on the calling goroutine (no goroutines spawned), which
// keeps single-threaded runs easy to debug and profile.
//
// workers is clamped to GOMAXPROCS: a sweep cell is pure CPU (no
// blocking I/O a goroutine could overlap), so oversubscribing the
// scheduler buys nothing and costs context switches — on small
// machines the extra goroutines made the scaling curve flat to
// negative (workers=2 measurably *slower* than workers=1 on one CPU).
//
// When sp is non-nil, every cell's wall time and memory deltas are
// recorded against the worker that ran it (worker 0 is the serial path
// / the calling goroutine), bracketed by the sweep's own wall window so
// the report can compute per-worker busy/idle occupancy. A nil sp is
// the plain runner — the collector only reads the host clock and
// MemStats, never the cells, so results are bit-identical either way.
//
// All cells are run even if some fail; the returned error is the first
// failure in canonical cell order, so error reporting is as
// deterministic as the results themselves.
func RunParallel[C any, R any](cells []C, workers int, sp *simprof.SweepProf, fn func(C) (R, error)) ([]R, error) {
	results := make([]R, len(cells))
	errs := make([]error, len(cells))
	if max := runtime.GOMAXPROCS(0); workers <= 0 || workers > max {
		workers = max
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	sp.Begin(len(cells), workers)
	if workers <= 1 {
		for i := range cells {
			sp.CellStart(i, 0)
			results[i], errs[i] = fn(cells[i])
			sp.CellEnd(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			w := w
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(cells) {
						return
					}
					sp.CellStart(i, w)
					results[i], errs[i] = fn(cells[i])
					sp.CellEnd(i)
				}
			}()
		}
		wg.Wait()
	}
	sp.End()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
