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
// SampledPool (a capped, uniform-over-valid sample of the grid), and
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

// SampledPool caps a pool-backed engine's candidate set on spaces too
// large to enumerate: K distinct configurations drawn uniformly over
// the valid grid by index-space rejection sampling (draw a uniform
// grid index, decode it, keep it if the constraint admits it). Memory
// is O(K) regardless of the grid size. Refresh redraws the set, so
// long sessions are not forever limited to the first K-candidate
// horizon.
type SampledPool struct {
	sp   *space.Space
	cap  int
	rng  *stats.RNG
	pool *Pool

	// exhausted counts draws that hit the retry bound before filling
	// the cap: the pool was returned short (≥ 2 candidates) because the
	// constraint or the exclusions rejected almost every index drawn.
	// Surfaced through Tuner.PoolExhaustedRetries so operators see a
	// too-restrictive constraint instead of a silently small pool.
	exhausted int64
}

// NewSampledPool draws the initial candidate set. cap 0 means
// DefaultPoolCap. The RNG is retained for Refresh; all draws come
// from it in a deterministic order, so a caller that reconstructs the
// tuner with the same seed (e.g. a journal replay) rebuilds the exact
// same pool.
func NewSampledPool(sp *space.Space, cap int, rng *stats.RNG) (*SampledPool, error) {
	if !sp.AllDiscrete() {
		return nil, fmt.Errorf("core: sampled pools need a fully discrete space")
	}
	if cap == 0 {
		cap = DefaultPoolCap
	}
	if cap < 2 {
		return nil, fmt.Errorf("core: sampled pool cap %d too small (need >= 2)", cap)
	}
	s := &SampledPool{sp: sp, cap: cap, rng: rng}
	if err := s.Refresh(nil); err != nil {
		return nil, err
	}
	return s, nil
}

// Refresh replaces the candidate pool with a fresh draw, skipping
// configurations the exclude predicate rejects (typically: already
// evaluated).
func (s *SampledPool) Refresh(exclude func(space.Config) bool) error {
	cands, err := s.draw(exclude)
	if err != nil {
		return err
	}
	pool, err := NewPool(s.sp, cands)
	if err != nil {
		return err
	}
	s.pool = pool
	return nil
}

// Pool returns the current candidate pool; Refresh swaps it for a new
// one rather than mutating it.
func (s *SampledPool) Pool() *Pool { return s.pool }

// draw collects up to cap distinct valid configurations by rejection
// sampling uniform grid indices. A short set (at least 2) is accepted
// when the constraint or the exclusions leave little else; an
// essentially-empty valid set is an error.
func (s *SampledPool) draw(exclude func(space.Config) bool) ([]space.Config, error) {
	grid, ok := s.sp.GridSize64()
	maxTries := 1000 * s.cap
	if maxTries < 1<<20 {
		maxTries = 1 << 20
	}
	set := newConfigSet(newIdentity(s.sp), s.cap)
	set.rows = make([]space.Config, 0, s.cap)
	for tries := 0; tries < maxTries && len(set.rows) < s.cap; tries++ {
		c := s.sp.FromGridIndex64(randGridIndex(s.rng, grid, ok))
		if !s.sp.Valid(c) {
			continue
		}
		if exclude != nil && exclude(c) {
			continue
		}
		set.add(c, set.id.hash(c))
	}
	out := set.rows
	if len(out) < 2 {
		return nil, fmt.Errorf("core: sampled pool found only %d valid configurations in %d draws (constraint too restrictive?)", len(out), maxTries)
	}
	if len(out) < s.cap {
		s.exhausted++
	}
	return out, nil
}

// ExhaustedRetries reports how many draws (initial and Refresh) hit
// the retry bound and returned a pool smaller than the cap.
func (s *SampledPool) ExhaustedRetries() int64 { return s.exhausted }

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
