// Package par provides the repo's shared data-parallel loop
// primitives: static chunking over [0, n) on a bounded number of
// goroutines, and one task per index for uneven work. Candidate
// scoring, graph construction, and label propagation all follow the
// same shape — embarrassingly parallel sweeps over dense index ranges —
// and experiment repetitions are independent runs indexed by
// repetition, so they share one implementation instead of each package
// growing its own ad-hoc worker pool.
//
// The scheduling is deterministic: NumChunks(n, workers) contiguous
// chunks of near-equal size, chunk c covering [c*ceil(n/workers),
// ...). Results indexed by element or by chunk therefore land in the
// same slots regardless of goroutine interleaving, which keeps
// parallel callers bit-reproducible.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// resolve normalizes a worker count: 0 or negative means GOMAXPROCS,
// and never more workers than elements.
func resolve(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// chunkSize returns the per-chunk element count used by Chunks.
func chunkSize(n, workers int) int {
	return (n + workers - 1) / workers
}

// NumChunks reports how many chunks Chunks(n, workers, ...) will
// invoke, so callers can preallocate per-chunk accumulators.
func NumChunks(n, workers int) int {
	if n <= 0 {
		return 0
	}
	workers = resolve(n, workers)
	size := chunkSize(n, workers)
	return (n + size - 1) / size
}

// Chunks runs body(chunk, lo, hi) for each contiguous chunk [lo, hi)
// of [0, n), on up to workers goroutines (workers <= 0 means
// GOMAXPROCS). With one worker the body runs inline on the calling
// goroutine. Chunk boundaries depend only on n and workers, never on
// scheduling.
func Chunks(n, workers int, body func(chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = resolve(n, workers)
	if workers == 1 {
		body(0, 0, n)
		return
	}
	size := chunkSize(n, workers)
	var wg sync.WaitGroup
	for c, lo := 0, 0; lo < n; c, lo = c+1, lo+size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			body(c, lo, hi)
		}(c, lo, hi)
	}
	wg.Wait()
}

// For runs body(i) for every i in [0, n) on up to workers goroutines
// (workers <= 0 means GOMAXPROCS) — the element-wise convenience
// wrapper over Chunks.
func For(n, workers int, body func(i int)) {
	Chunks(n, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// Each runs fn(i) for every i in [0, n), at most workers calls at a
// time (workers <= 0 means GOMAXPROCS), each worker taking the next
// index when it finishes one, and returns the first error in index
// order once every call has returned. It is the loop for few uneven
// tasks, such as an experiment's repetitions, where Chunks's static
// split would leave workers idle. Callers write results into
// index-keyed slots and reduce after it returns, so the reduction
// order, and with it floating-point rounding, never depends on
// scheduling.
func Each(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := resolve(n, workers); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
