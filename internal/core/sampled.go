package core

import (
	"fmt"
	"math"

	"github.com/hpcautotune/hiperbot/internal/space"
	"github.com/hpcautotune/hiperbot/internal/stats"
)

// Large-space mode. Every pool-backed engine was fed by
// Space.Enumerate, which materializes the full constrained cross
// product — fine at the paper's table sizes (≤ ~32k grid points),
// impossible at the 10^6–10^9-point spaces the service targets. Two
// replacements, selected in NewTuner: pool-requiring engines get a
// sampled pool (one capped, uniform-over-valid draw of the grid), and
// the default TPE path switches to the "sampling" engine, which needs
// no pool at all — it draws candidates from the fitted good density
// pg and ranks them by pg/pb (Proposal's acquirer at a larger draw
// count, engine_tpe.go), the original TPE formulation (Watanabe 2023)
// rather than the exhaustive-scoring variant.

const (
	// DefaultEnumerateLimit is the grid size above which NewTuner stops
	// enumerating and switches to large-space mode. An enumerated pool
	// of 2^20 configurations keeps 12–16 MB of bookkeeping and no rows
	// (pool.go) — still comfortable; every table in the paper is far
	// below it, so paper-scale runs are byte-for-byte unaffected.
	DefaultEnumerateLimit = 1 << 20
	// DefaultPoolCap is the sampled-pool size when Options.PoolCap is 0.
	DefaultPoolCap = 4096
	// DefaultCandidateSamples is the good-density draw count per pick
	// of the "sampling" and "grouped" engines when
	// Options.CandidateSamples is 0.
	DefaultCandidateSamples = 1024
)

// gridTooLarge reports whether a fully discrete space's grid exceeds
// the enumerate limit (an overflowing grid trivially does).
func gridTooLarge(sp *space.Space) bool {
	grid, ok := sp.GridSize64()
	return !ok || grid > DefaultEnumerateLimit
}

// gridSizeString renders a grid size for error messages, including
// the overflowed case.
func gridSizeString(sp *space.Space) string {
	grid, ok := sp.GridSize64()
	if !ok {
		return "more than 2^62"
	}
	return fmt.Sprintf("%d", grid)
}

// sampledPool draws the candidate pool of a pool-backed engine on a
// space too large to enumerate: up to cap distinct configurations
// (0 means DefaultPoolCap) drawn uniformly over the valid grid by
// index-space rejection sampling (draw a uniform grid index, decode
// it, keep it if the constraint admits it). Memory is O(cap)
// regardless of the grid size. The draws come from rng in a fixed
// order, so a tuner rebuilt with the same seed (a journal replay)
// rebuilds the same pool. A short pool (at least 2) is accepted when
// the constraint leaves little else, and short reports it: the draw
// hit its retry bound before filling the cap, which
// Tuner.PoolExhaustedRetries surfaces so operators see a
// too-restrictive constraint instead of a silently small pool.
func sampledPool(sp *space.Space, cap int, rng *stats.RNG) (pool *Pool, short bool, err error) {
	if cap == 0 {
		cap = DefaultPoolCap
	}
	if cap < 2 {
		return nil, false, fmt.Errorf("core: sampled pool cap %d too small (need >= 2)", cap)
	}
	grid, ok := sp.GridSize64()
	maxTries := 1000 * cap
	if maxTries < 1<<20 {
		maxTries = 1 << 20
	}
	set := newConfigSet(newIdentity(sp), cap)
	set.rows = make([]space.Config, 0, cap)
	for tries := 0; tries < maxTries && len(set.rows) < cap; tries++ {
		c := sp.FromGridIndex64(randGridIndex(rng, grid, ok))
		if sp.Valid(c) {
			set.add(c, set.id.hash(c))
		}
	}
	if len(set.rows) < 2 {
		return nil, false, fmt.Errorf("core: sampled pool found only %d valid configurations in %d draws (constraint too restrictive?)", len(set.rows), maxTries)
	}
	pool, err = NewPool(sp, set.rows)
	return pool, len(set.rows) < cap, err
}

// randGridIndex draws a uniform index in [0, grid). gridOK=false
// means the true grid size exceeds 2^64, so every uint64 is inside
// it. The in-range case rejects the biased tail of the uint64 range
// instead of taking a bare modulus.
func randGridIndex(r *stats.RNG, grid uint64, gridOK bool) uint64 {
	if !gridOK {
		return r.Uint64()
	}
	limit := math.MaxUint64 - math.MaxUint64%grid // multiple of grid
	for {
		if v := r.Uint64(); v < limit {
			return v % grid
		}
	}
}
