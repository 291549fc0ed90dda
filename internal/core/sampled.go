package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

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
// pg and ranks them by pg/pb, the original TPE formulation (Watanabe
// 2023) rather than the exhaustive-scoring variant.

const (
	// DefaultEnumerateLimit is the grid size above which NewTuner stops
	// enumerating and switches to large-space mode. An enumerated pool
	// of 2^20 configurations keeps 12–16 MB of bookkeeping and no rows
	// (pool.go) — still comfortable; every table in the paper is far
	// below it, so paper-scale runs are byte-for-byte unaffected.
	DefaultEnumerateLimit = 1 << 20
	// DefaultPoolCap is the sampled-pool size when Options.PoolCap is 0.
	DefaultPoolCap = 4096
	// DefaultCandidateSamples is the per-acquisition good-density draw
	// count of the "sampling" engine when Options.CandidateSamples is 0.
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

func init() {
	RegisterEngine(EngineSpec{
		Name: "sampling",
		Pool: PoolUnused,
		New: func(sp *space.Space, opts Options, pool *Pool) (Model, Acquirer, error) {
			return &TPEModel{cfg: opts.Surrogate}, samplingAcquirer{}, nil
		},
	})
}

// samplingAcquirer is pool-free TPE acquisition: draw
// CandidateSamples·k configurations from the fitted good density pg,
// deduplicate, drop evaluated ones, score the rest in one columnar
// ScoreBatch pass, and keep the top k by (score desc, draw order
// asc). Unlike the proposal acquirer it scores candidates in batch —
// the same hot path ranking uses — so acquisition cost is dominated
// by the draws, not per-row scoring.
type samplingAcquirer struct{}

func (samplingAcquirer) Propose(a *Acquisition, k int) ([]space.Config, error) {
	draws := a.CandidateSamples
	if draws <= 0 {
		draws = DefaultCandidateSamples
	}
	if k > 1 {
		draws *= k
	}
	cands := newConfigSet(a.History.identity(), draws)
	cands.rows = make([]space.Config, 0, draws)
	for i := 0; i < draws; i++ {
		c := a.Model.Sample(a.RNG)
		h := cands.id.hash(c)
		if !a.History.has(c, h) && !a.Leased.has(c, h) {
			cands.add(c, h)
		}
	}
	return pickTop(a, cands.rows, k, "sampling acquisition")
}

// pickTop is the score-and-pick tail the pool-free acquirers share:
// it scores cands in one ScoreAll pass and keeps the best k by (score
// desc, index asc). When no candidate is left — every one was
// evaluated, leased, or invalid, so the good density has collapsed
// onto known points — it explores uniformly instead; who names the
// acquirer in the exhaustion error.
func pickTop(a *Acquisition, cands []space.Config, k int, who string) ([]space.Config, error) {
	if len(cands) == 0 {
		return exploreUniform(a, who)
	}
	batch, err := space.NewBatch(a.Space, cands)
	if err != nil {
		return nil, err
	}
	scores := ScoreAll(a.Model, batch, a.Parallelism)
	if k == 1 {
		best := 0
		for i := 1; i < len(cands); i++ {
			if scores[i] > scores[best] {
				best = i
			}
		}
		return []space.Config{cands[best]}, nil
	}
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		if scores[order[x]] != scores[order[y]] {
			return scores[order[x]] > scores[order[y]]
		}
		return order[x] < order[y]
	})
	if len(order) > k {
		order = order[:k]
	}
	out := make([]space.Config, len(order))
	for i, idx := range order {
		out[i] = cands[idx]
	}
	return out, nil
}

// errExhausted marks a pool-free acquisition that found no
// configuration outside the evaluated and leased set. Ask ends its
// batch short on it, as it does on an exhausted pool; Step reports it.
var errExhausted = errors.New("exhausted the space")

// exploreUniform draws uniformly until it finds a configuration that
// is neither evaluated nor leased.
func exploreUniform(a *Acquisition, who string) ([]space.Config, error) {
	id := a.History.identity()
	for try := 0; try < 100000; try++ {
		c := a.Space.Sample(a.RNG)
		if h := id.hash(c); !a.History.has(c, h) && !a.Leased.has(c, h) {
			return []space.Config{c}, nil
		}
	}
	return nil, fmt.Errorf("core: %s %w", who, errExhausted)
}
