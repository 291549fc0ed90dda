package gp

import (
	"fmt"
	"runtime"

	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/linalg"
	"github.com/hpcautotune/hiperbot/internal/space"
)

// This file packages GP-EI as a registered engine ("gp") for the
// shared core.Tuner loop: the incremental GP posterior is the Model
// and the standard ranking rule is the Acquirer, scoring each pool
// candidate by the expected improvement the poolEI caches hold.
// Fits are incremental under the history-generation discipline — a
// repeated Fit against an unchanged history no-ops, new observations
// extend the Cholesky factor and pool caches by one row each — so
// the warm ask path stays allocation-free. Servers select the engine
// per session by name; binaries import this package for the
// registration side effect.

func init() {
	core.RegisterEngine(core.EngineSpec{
		Name: "gp",
		Pool: core.PoolRequired,
		New:  newEngine,
	})
}

// EngineConfig is the Options.EngineConfig payload understood by the
// "gp" engine. The zero value uses the kernel defaults.
type EngineConfig struct {
	// Kernel parameterizes the RBF covariance.
	Kernel Kernel
	// Parallelism caps the worker goroutines of the pooled
	// kernel/EI sweeps (0 = the tuner's parallelism). Results are
	// bit-identical at any setting.
	Parallelism int
}

func newEngine(sp *space.Space, opts core.Options, pool *core.Pool) (core.Model, core.Acquirer, error) {
	cfg, ok := opts.EngineConfig.(EngineConfig)
	if opts.EngineConfig != nil && !ok {
		return nil, nil, fmt.Errorf("gp: Options.EngineConfig is %T, want gp.EngineConfig", opts.EngineConfig)
	}
	kernel := cfg.Kernel.withDefaults()
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = opts.Parallelism
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	feat := linalg.NewMatrix(pool.Size(), sp.OneHotLen())
	for i := 0; i < pool.Size(); i++ {
		sp.EncodeOneHot(pool.Candidate(i), feat.Row(i))
	}
	m := &eiModel{sp: sp}
	m.tr = newTrainer(kernel, 64, kernelRows(kernel, &m.xs))
	m.pe = newPoolEI(feat, kernel, workers)
	return m, core.RankingAcquirer(m.scores), nil
}

// eiModel keeps the expected improvement of every pool candidate under
// an incrementally fitted GP posterior.
type eiModel struct {
	sp *space.Space

	tr *trainer
	pe *poolEI

	xs    [][]float64 // encoded configurations, history order (+ trailing fantasy rows)
	ys    []float64
	z     []float64 // standardized targets buffer
	alpha []float64 // weight vector buffer
	yMean float64
	yStd  float64
	best  float64 // best observed value at the last fit

	fitHist  *core.History
	fitGen   uint64
	baseRows int    // prefix of xs/ys holding real observations
	pendHash uint64 // pending-overlay hash of the current fit
	fitted   bool
}

// resetFit drops every derived structure for a cold refit (history
// replaced or truncated), keeping allocations.
func (m *eiModel) resetFit() {
	m.tr.reset()
	m.pe.reset()
	m.xs = m.xs[:0]
	m.ys = m.ys[:0]
	m.baseRows = 0
	m.pendHash = 0
	m.fitted = false
}

// truncate rewinds the factor, the pool caches, and the training rows
// to the first n rows — retracting the previous fit's fantasy rows so
// the observed prefix keeps extending append-only underneath them.
func (m *eiModel) truncate(n int) {
	m.pe.truncate(n)
	m.tr.chol.Truncate(n)
	m.xs = m.xs[:n]
	m.ys = m.ys[:n]
}

// Fit folds history observations not yet absorbed into the factor and
// the pool caches, then re-solves the weight vector and refreshes the
// cached per-candidate EI. Against an unchanged history (same object,
// same generation, same pending overlay) it is a no-op.
//
// Pending leases are folded as trailing constant-liar fantasy rows
// after the observed prefix (see core.History.Fantasized) and
// retracted by truncation on the next fit, so the observed prefix
// itself remains append-only — duplicating a pending point's row pulls
// its posterior variance (and so its EI) toward zero, which is what
// steers concurrent batch picks apart. The no-pending path never
// truncates and stays bit-identical to the overlay-free fit.
func (m *eiModel) Fit(h *core.History) error {
	if h.Len() == 0 {
		return fmt.Errorf("gp: fit on an empty history")
	}
	gen := h.Generation()
	pend := h.PendingHash()
	if m.fitted && m.fitHist == h && m.fitGen == gen && m.pendHash == pend {
		return nil
	}
	if m.fitHist != h || h.Len() < m.baseRows {
		m.resetFit()
	}
	if len(m.xs) > m.baseRows {
		m.truncate(m.baseRows)
	}
	fh := h.Fantasized()
	for i := len(m.xs); i < fh.Len(); i++ {
		o := fh.At(i)
		x := make([]float64, m.sp.OneHotLen())
		m.sp.EncodeOneHot(o.Config, x)
		m.xs = append(m.xs, x)
		m.ys = append(m.ys, o.Value)
	}
	m.baseRows = h.Len()
	if err := foldInto(m.tr, m.pe, m.xs); err != nil {
		return err
	}
	n := len(m.ys)
	if cap(m.z) < n {
		m.z = make([]float64, n, 2*n)
		m.alpha = make([]float64, n, 2*n)
	} else {
		m.z, m.alpha = m.z[:n], m.alpha[:n]
	}
	m.yMean, m.yStd = m.tr.solveAlpha(m.ys, m.z, m.alpha)
	m.pe.refreshMoments(m.alpha, m.yMean, m.yStd)
	m.best = h.Best().Value
	m.pe.refreshEI(m.best)
	m.fitHist, m.fitGen, m.pendHash, m.fitted = h, gen, pend, true
	return nil
}

// scores fills the ranking acquirer's scores: the expected improvement
// of every pool candidate, cached by the last Fit.
func (m *eiModel) scores(_ *core.Acquisition, dst []float64) error {
	copy(dst, m.pe.ei)
	return nil
}
