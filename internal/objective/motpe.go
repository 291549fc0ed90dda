package objective

import (
	"math"

	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/space"
	"github.com/hpcautotune/hiperbot/internal/stats"
)

// The "motpe" engine: multi-objective TPE via Pareto-front good/bad
// splitting (Watanabe's TPE survey). Classic TPE labels the α-quantile
// of scalar values "good" and ranks candidates by log pg − log pb;
// motpe keeps that density machinery untouched and only changes what
// "good" means: observations are admitted by nondomination rank —
// the Pareto front first, then the next front, and so on — until the
// good set holds ⌈α·n⌉ members, with the overflowing front tie-broken
// by ε-dominance coverage (hypervolume-free, deterministic; see
// ParetoSplit). Acquisition is the stock ranking acquirer on pooled
// spaces and the Proposal engine's pool-free acquirer otherwise (100
// pg draws per pick unless Options.CandidateSamples is set), so motpe
// slots into every Tuner feature (batches, ask/tell, journals).
//
// Histories without objective vectors degrade to one-dimensional
// [Value] points, under which the split is the scalar top-⌈α·n⌉ —
// motpe then behaves like a (rank-based) single-objective TPE, so a
// session created with strategy "motpe" but fed legacy results still
// works.

func init() {
	core.RegisterEngine(core.EngineSpec{
		Name: "motpe",
		Pool: core.PoolPreferred,
		New: func(sp *space.Space, opts core.Options, pool *core.Pool) (core.Model, core.Acquirer, error) {
			m := &motpeModel{cfg: opts.Surrogate}
			if pool != nil {
				return m, core.RankingAcquirer(), nil
			}
			return m, core.ProposalAcquirer(), nil
		},
	})
}

// motpeModel adapts the Pareto-split surrogate to the core.Model
// interface. Fit is generation-cached like TPEModel's, but rebuilds
// cold on change: the nondominated ranking is a global property of the
// vector set (one new point can demote an entire front), so there is
// no incremental split to maintain. Ranking is O(n²·m) in the history
// — evaluations are assumed expensive, so n stays small.
type motpeModel struct {
	cfg core.SurrogateConfig
	s   *core.Surrogate

	fitHist *core.History
	fitGen  uint64
	fitPend uint64 // pending-overlay hash of the current fit

	vecs [][]float64 // scratch, reused across fits

	imp    []float64
	impFor *core.Surrogate
}

// Fit rebuilds the surrogate from the Pareto-split history. A fit with
// an unchanged (generation, pending hash) pair is a no-op. With
// in-flight leases the split runs over the fantasized view
// (History.Fantasized): pending points carry the component-wise
// constant-liar vector, so the nondominated ranking sees them like any
// other observation and steers concurrent batch picks apart; with no
// pending work the view is the history itself and the fit is
// bit-identical to the overlay-free behavior.
func (m *motpeModel) Fit(h *core.History) error {
	gen := h.Generation()
	pend := h.PendingHash()
	if m.s != nil && m.fitHist == h && m.fitGen == gen && m.fitPend == pend {
		return nil
	}
	fh := h.Fantasized()
	m.vecs = HistoryVectors(fh, m.vecs)
	alpha := m.cfg.Quantile
	if alpha == 0 {
		alpha = 0.20 // the paper's default α, matching SurrogateConfig
	}
	target := int(math.Ceil(alpha * float64(fh.Len())))
	mask := ParetoSplit(m.vecs, target)
	s, err := core.BuildMaskedSurrogate(fh, mask, m.cfg)
	if err != nil {
		return err
	}
	m.s = s
	m.fitHist = h
	m.fitGen = gen
	m.fitPend = pend
	return nil
}

// Score returns log pg(c) − log pb(c) under the Pareto split.
func (m *motpeModel) Score(c space.Config) float64 { return m.s.Score(c) }

// ScoreBatch scores a columnar batch, bit-identical to row-wise Score.
func (m *motpeModel) ScoreBatch(b *space.Batch, dst []float64) { m.s.ScoreBatch(b, dst) }

// Sample draws from the good (Pareto-set) density pg.
func (m *motpeModel) Sample(r *stats.RNG) space.Config { return m.s.SampleGood(r) }

// Importance returns the per-parameter JS divergence between the
// Pareto-set and dominated densities (nil before the first Fit),
// cached per fitted surrogate.
func (m *motpeModel) Importance() []float64 {
	if m.s == nil {
		return nil
	}
	if m.imp == nil || m.impFor != m.s {
		m.imp = m.s.Importance()
		m.impFor = m.s
	}
	return m.imp
}

// Surrogate exposes the fitted surrogate (nil before the first Fit).
func (m *motpeModel) Surrogate() *core.Surrogate { return m.s }
