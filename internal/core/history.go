// Package core implements HiPerBOt, the paper's contribution: an
// active-learning configuration-selection framework built on
// Tree-structured-Parzen-Estimator-style Bayesian optimization
// (paper §II-III, following Bergstra et al. 2011).
//
// The pieces map one-to-one onto the paper:
//
//   - History is the observation history H_t (§III-A);
//   - Surrogate holds the factorized good/bad densities pg(x), pb(x)
//     split at the α-quantile threshold y_τ (§II, §III-B) and scores
//     candidates by the expected-improvement ratio pg(x)/pb(x) (eq. 5);
//   - Prior carries source-domain densities for transfer learning and
//     mixes them in with weight w (eqs. 9-10, §III-E);
//   - Tuner runs the iterative select→evaluate→update loop (§III-C)
//     with either the Ranking or the Proposal selection strategy
//     (§III-D);
//   - Importance ranks parameters by the Jensen-Shannon divergence
//     between their good and bad densities (§VI).
package core

import (
	"fmt"

	"github.com/hpcautotune/hiperbot/internal/space"
)

// Observation pairs an evaluated configuration with its objective
// value (lower is better). Multi-metric evaluations may additionally
// carry the raw metric map they were derived from and a canonical
// (all-minimize) objective vector for multi-objective engines; both
// are nil for classic single-value observations.
type Observation struct {
	Config space.Config
	// Value is the scalar objective driving Best, stall detection, and
	// every scalar engine. For multi-objective sessions it is the
	// scalarization of Objectives.
	Value float64
	// Metrics, when non-nil, holds the raw named measurements the
	// result was reported with (e.g. "p95_latency_ms"). Journaled and
	// replayed verbatim; never consulted by scalar engines.
	Metrics map[string]float64
	// Objectives, when non-nil, is the canonical minimize-oriented
	// objective vector (one entry per session objective, maximize
	// components sign-flipped) consumed by multi-objective engines.
	Objectives []float64
}

// History is the observation history H_t: every configuration whose
// true objective has been computed, in evaluation order.
type History struct {
	sp   *space.Space
	obs  []Observation
	seen configIndex // obs by configuration identity
	best int         // index of the best observation, -1 when empty
	gen  uint64      // bumped on every Add; see Generation

	// Pending-observation overlay (see pending.go): in-flight
	// configurations fantasized into fits under the constant-liar
	// policy, indexed separately from the observed set.
	pend     configSet
	pendHash uint64 // order-independent digest; 0 when empty
	liar     LiarPolicy

	fant     *History // cached fantasized view (Fantasized)
	fantGen  uint64
	fantHash uint64
}

// NewHistory creates an empty history over the given space.
func NewHistory(sp *space.Space) *History {
	id := newIdentity(sp)
	return &History{sp: sp, seen: configIndex{id: id}, pend: configSet{configIndex: configIndex{id: id}}, best: -1}
}

// Add appends an observation. Duplicate configurations are rejected
// with an error: the paper's Ranking strategy guarantees no duplicate
// evaluations, so a duplicate signals a selection bug (or a caller
// re-evaluating a noisy objective, which this framework models as
// deterministic tables).
func (h *History) Add(c space.Config, v float64) error {
	return h.AddObs(Observation{Config: c, Value: v})
}

// AddObs is Add for a full observation (metrics and objective vector
// included). The config is cloned; best tracking remains scalar — the
// minimum Value — so single-objective behavior is unchanged and
// multi-objective sessions track the best scalarized value (the Pareto
// front is derived from the stored vectors, not from best). A config
// whose arity differs from the space's is rejected with an error.
func (h *History) AddObs(obs Observation) error {
	c := obs.Config
	if len(c) != h.seen.id.arity() {
		return fmt.Errorf("core: observation has %d values, space has %d parameters", len(c), h.seen.id.arity())
	}
	if h.seen.insert(c, h.seen.id.hash(c), len(h.obs), h.obsRow) >= 0 {
		if h.sp.Check(c) != nil {
			return fmt.Errorf("core: duplicate observation for %v", c) // Describe needs valid levels
		}
		return fmt.Errorf("core: duplicate observation for %s", h.sp.Describe(c))
	}
	obs.Config = c.Clone()
	h.obs = append(h.obs, obs)
	if h.best < 0 || obs.Value < h.obs[h.best].Value {
		h.best = len(h.obs) - 1
	}
	h.gen++
	return nil
}

// Grow preallocates room for n further observations: the obs slice
// capacity and the identity index's table, so 10k resumed
// observations neither regrow the slice nor rehash the table. A no-op
// for n <= 0.
func (h *History) Grow(n int) {
	if n <= 0 {
		return
	}
	if free := cap(h.obs) - len(h.obs); free < n {
		grown := make([]Observation, len(h.obs), len(h.obs)+n)
		copy(grown, h.obs)
		h.obs = grown
	}
	h.seen.reserve(n, h.obsRow)
}

// obsRow is the row accessor of the seen index.
func (h *History) obsRow(i int) space.Config { return h.obs[i].Config }

// Generation returns a counter that changes whenever the history
// does. A history is append-only, so equal generations on the same
// History mean the observation set is unchanged — the invalidation
// key for fitted-model caches (TPEModel, the gp and motpe models).
func (h *History) Generation() uint64 { return h.gen }

// MustAdd is Add but panics on duplicates.
func (h *History) MustAdd(c space.Config, v float64) {
	if err := h.Add(c, v); err != nil {
		panic(err)
	}
}

// Len returns the number of observations.
func (h *History) Len() int { return len(h.obs) }

// At returns the i-th observation in evaluation order.
func (h *History) At(i int) Observation { return h.obs[i] }

// Observations returns the full history slice (shared; do not mutate).
func (h *History) Observations() []Observation { return h.obs }

// Contains reports whether the configuration has been evaluated.
func (h *History) Contains(c space.Config) bool {
	return len(c) == h.seen.id.arity() && h.has(c, h.seen.id.hash(c))
}

// has is Contains for a row of the space's arity whose identity hash
// is hc, so a draw hashed once is tested against every index.
func (h *History) has(c space.Config, hc uint64) bool {
	return h.seen.lookup(c, hc, h.obsRow) >= 0
}

// identity is the configuration identity of the history's space.
func (h *History) identity() identity { return h.seen.id }

// Best returns the best observation so far. It panics on an empty
// history.
func (h *History) Best() Observation {
	if h.best < 0 {
		panic("core: Best on empty history")
	}
	return h.obs[h.best]
}

// Values returns the objective values in evaluation order.
func (h *History) Values() []float64 {
	out := make([]float64, len(h.obs))
	for i, o := range h.obs {
		out[i] = o.Value
	}
	return out
}

// BestTrajectory returns, for each prefix length i+1, the best value
// observed within the first i+1 evaluations — the "best configuration
// vs sample size" curves of Figs. 2a-6a.
func (h *History) BestTrajectory() []float64 {
	out := make([]float64, len(h.obs))
	for i, o := range h.obs {
		if i == 0 || o.Value < out[i-1] {
			out[i] = o.Value
		} else {
			out[i] = out[i-1]
		}
	}
	return out
}

// Space returns the configuration space of the history.
func (h *History) Space() *space.Space { return h.sp }
