package geist

import (
	"fmt"
	"sort"

	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/space"
	"github.com/hpcautotune/hiperbot/internal/stats"
)

// This file packages GEIST as a registered engine ("geist") for the
// shared core.Tuner loop: the CAMLP label-propagation beliefs are the
// Model, and the top-belief-plus-uniform-exploration batch rule is
// the Acquirer, which holds the model and reads its beliefs. The
// Sampler in sampler.go is a thin adapter over this engine; servers
// can also select it per session by name (the daemon binary imports
// this package for the registration side effect).

func init() {
	core.RegisterEngine(core.EngineSpec{
		Name: "geist",
		Pool: core.PoolRequired,
		New:  newEngine,
	})
}

// EngineConfig is the Options.EngineConfig payload understood by the
// "geist" engine. The zero value uses the sampler defaults.
type EngineConfig struct {
	// Graph is the Hamming-1 configuration graph over the candidate
	// pool (node i = pool candidate i). nil builds it from the pool.
	Graph *Graph
	// CAMLP configures the label-propagation solver.
	CAMLP CAMLP
	// Quantile sets the optimal/non-optimal labeling threshold on the
	// observed objective values (default 0.20). The threshold is fixed
	// at the first model fit (paper §V: "some initial threshold").
	Quantile float64
	// ExploreFrac mixes uniform-random picks into each batch
	// (default 0.2).
	ExploreFrac float64
	// RNG, when non-nil, overrides the tuner's RNG for exploration
	// picks. The Sampler adapter uses it to keep one deterministic
	// stream across its bootstrap draws and the engine's exploration.
	RNG *stats.RNG
}

func (c EngineConfig) withDefaults() EngineConfig {
	if c.Quantile == 0 {
		c.Quantile = 0.20
	}
	if c.CAMLP == (CAMLP{}) {
		c.CAMLP = DefaultCAMLP()
	}
	if c.ExploreFrac == 0 {
		c.ExploreFrac = 0.2
	}
	return c
}

func newEngine(sp *space.Space, opts core.Options, pool *core.Pool) (core.Model, core.Acquirer, error) {
	cfg, ok := opts.EngineConfig.(EngineConfig)
	if opts.EngineConfig != nil && !ok {
		return nil, nil, fmt.Errorf("geist: Options.EngineConfig is %T, want geist.EngineConfig", opts.EngineConfig)
	}
	cfg = cfg.withDefaults()
	if cfg.Quantile <= 0 || cfg.Quantile >= 1 {
		return nil, nil, fmt.Errorf("geist: quantile %v outside (0,1)", cfg.Quantile)
	}
	if cfg.ExploreFrac < 0 || cfg.ExploreFrac > 1 {
		return nil, nil, fmt.Errorf("geist: explore fraction %v outside [0,1]", cfg.ExploreFrac)
	}
	g := cfg.Graph
	if g == nil {
		g = buildGraph(sp, pool.Size(), pool.Candidate, pool.IndexOf, false)
	}
	if g.NumNodes() != pool.Size() {
		return nil, nil, fmt.Errorf("geist: graph has %d nodes, candidate pool %d", g.NumNodes(), pool.Size())
	}
	m := &camlpModel{sp: sp, pool: pool, g: g, solver: cfg.CAMLP, quantile: cfg.Quantile}
	return m, &geistAcquirer{m: m, exploreFrac: cfg.ExploreFrac, rng: cfg.RNG}, nil
}

// camlpModel holds the propagated P(optimal) belief per pool
// candidate. The labeling threshold is frozen at the first fit,
// matching the paper's description of GEIST.
type camlpModel struct {
	sp        *space.Space
	pool      *core.Pool
	g         *Graph
	solver    CAMLP
	quantile  float64
	threshold float64
	fitted    bool
	beliefs   []float64
	fitHist   *core.History // history beliefs were propagated from
	fitGen    uint64        // its generation then
}

// Fit labels the evaluated nodes against the (frozen) threshold and
// re-propagates beliefs over the graph. The beliefs read only the
// observations, never the pending overlay, so a fit on the same
// history at the same generation keeps them and does nothing.
func (m *camlpModel) Fit(h *core.History) error {
	if h.Len() == 0 {
		return fmt.Errorf("geist: fit on an empty history")
	}
	if m.beliefs != nil && m.fitHist == h && m.fitGen == h.Generation() {
		return nil
	}
	if !m.fitted {
		m.threshold = stats.Quantile(h.Values(), m.quantile)
		m.fitted = true
	}
	labels := make(map[int]bool, h.Len())
	for _, o := range h.Observations() {
		idx := m.pool.IndexOf(o.Config)
		if idx < 0 {
			return fmt.Errorf("geist: observed configuration %s is not in the candidate pool",
				m.sp.Describe(o.Config))
		}
		labels[idx] = o.Value <= m.threshold
	}
	m.beliefs = m.solver.Propagate(m.g, labels)
	m.fitHist, m.fitGen = h, h.Generation()
	return nil
}

// geistAcquirer selects each batch as the top-belief unevaluated
// nodes plus a fraction of uniform exploration picks.
type geistAcquirer struct {
	m           *camlpModel
	exploreFrac float64
	rng         *stats.RNG
}

func (q *geistAcquirer) Propose(a *core.Acquisition, k int) ([]space.Config, error) {
	p := a.Pool
	if p == nil {
		return nil, fmt.Errorf("geist: acquisition requires a candidate pool")
	}
	n := p.Size()
	uneval := make([]bool, n)
	for _, idx := range p.Remaining() {
		if p.Leased(idx) {
			continue // leased out by pending-aware ask/tell
		}
		uneval[idx] = true
	}

	nExplore := int(float64(k) * q.exploreFrac)
	nExploit := k - nExplore

	// Rank unevaluated nodes by optimal belief, index order as the
	// deterministic tie-break.
	order := make([]int, 0, p.RemainingCount())
	for i := 0; i < n; i++ {
		if uneval[i] {
			order = append(order, i)
		}
	}
	beliefs := q.m.beliefs
	sort.Slice(order, func(x, y int) bool {
		if beliefs[order[x]] != beliefs[order[y]] {
			return beliefs[order[x]] > beliefs[order[y]]
		}
		return order[x] < order[y]
	})

	picked := make(map[int]bool, k)
	var picks []space.Config
	for i := 0; i < nExploit && i < len(order); i++ {
		picked[order[i]] = true
		picks = append(picks, p.Candidate(order[i]))
	}

	// Exploration picks: uniform over the unevaluated nodes not
	// already picked this round, pool rebuilt in index order per pick
	// (preserving the original sampler's draw sequence).
	r := q.rng
	if r == nil {
		r = a.RNG
	}
	for e := 0; e < nExplore; e++ {
		var pool []int
		for i := 0; i < n; i++ {
			if uneval[i] && !picked[i] {
				pool = append(pool, i)
			}
		}
		if len(pool) == 0 {
			break
		}
		pick := pool[r.Intn(len(pool))]
		picked[pick] = true
		picks = append(picks, p.Candidate(pick))
	}
	return picks, nil
}
