package core

import (
	"fmt"
	"math"

	"github.com/hpcautotune/hiperbot/internal/space"
	"github.com/hpcautotune/hiperbot/internal/stats"
)

// density is a one-dimensional probability density over a single
// parameter's domain, the building block of the factorized surrogate
// (paper eq. 7-8).
type density interface {
	// logProb returns the log density/mass at the parameter value
	// (level index for discrete parameters, real value for continuous).
	logProb(x float64) float64
	// sample draws a value from the density.
	sample(r *stats.RNG) float64
	// probs returns a discretized probability vector for divergence
	// computations (§VI).
	probs() []float64
}

// discreteDensity wraps a smoothed categorical histogram (§III-B.1).
// Log masses are precomputed: Ranking scores every candidate in the
// space each iteration, so logProb sits on the hot path.
type discreteDensity struct {
	cat  *stats.Categorical
	logP []float64
}

func newDiscreteDensity(cat *stats.Categorical) discreteDensity {
	logP := make([]float64, cat.K())
	for i := range logP {
		logP[i] = math.Log(cat.Prob(i))
	}
	return discreteDensity{cat: cat, logP: logP}
}

func (d discreteDensity) logProb(x float64) float64 {
	return d.logP[int(x)]
}
func (d discreteDensity) sample(r *stats.RNG) float64 {
	return float64(d.cat.Sample(r))
}
func (d discreteDensity) probs() []float64 { return d.cat.Probs() }

// continuousDensity wraps a Gaussian KDE (§III-B.2) with the parameter
// bounds and a bin count for discretized divergences.
type continuousDensity struct {
	kde    *stats.KDE
	lo, hi float64
	bins   int
}

func (d continuousDensity) logProb(x float64) float64 {
	p := d.kde.Density(x)
	if p <= 0 {
		return math.Inf(-1)
	}
	return math.Log(p)
}
func (d continuousDensity) sample(r *stats.RNG) float64 {
	return d.kde.Sample(r)
}
func (d continuousDensity) probs() []float64 {
	return d.kde.DiscretizedProbs(d.lo, d.hi, d.bins)
}

// SurrogateConfig collects the surrogate's hyperparameters.
type SurrogateConfig struct {
	// Quantile is α: the fraction of the history labeled "good"
	// (paper §III-C step 2; 0.20 in the paper's experiments).
	Quantile float64
	// Smoothing is the Laplace pseudo-count for discrete histograms.
	Smoothing float64
	// Bandwidth is the Gaussian-kernel bandwidth for continuous
	// parameters; <= 0 selects Scott's rule per density.
	Bandwidth float64
	// Bins discretizes continuous densities for importance analysis.
	Bins int
	// Prior, when non-nil, mixes source-domain densities into pg/pb
	// with weight PriorWeight (paper eqs. 9-10).
	Prior *Prior
	// PriorWeight is w in eqs. 9-10.
	PriorWeight float64
}

// withDefaults fills unset fields with the paper's choices.
func (c SurrogateConfig) withDefaults() SurrogateConfig {
	if c.Quantile == 0 {
		c.Quantile = 0.20
	}
	if c.Smoothing == 0 {
		c.Smoothing = 1.0
	}
	if c.Bins == 0 {
		c.Bins = 20
	}
	if c.PriorWeight == 0 {
		c.PriorWeight = 1.0
	}
	return c
}

func (c SurrogateConfig) validate() error {
	if c.Quantile <= 0 || c.Quantile >= 1 {
		return fmt.Errorf("core: quantile %v outside (0,1)", c.Quantile)
	}
	if c.Smoothing <= 0 {
		return fmt.Errorf("core: smoothing %v must be positive", c.Smoothing)
	}
	if c.Bins < 2 {
		return fmt.Errorf("core: bins %v must be >= 2", c.Bins)
	}
	if c.PriorWeight < 0 {
		return fmt.Errorf("core: prior weight %v must be >= 0", c.PriorWeight)
	}
	return nil
}

// Surrogate is the cheap model I_t(x) of the expensive objective: a
// pair of factorized densities pg (good) and pb (bad) split at the
// α-quantile threshold y_τ.
type Surrogate struct {
	sp        *space.Space
	good, bad []density
	threshold float64
	nGood     int
	nBad      int
	alpha     float64
}

// BuildSurrogate constructs the surrogate from the observation
// history (paper §III-C step 2). The history must be non-empty. It is
// a cold build: all statistics are accumulated from scratch through
// the same surrogateBuilder the incremental TPEModel.Fit path uses,
// so the two are bit-identical by construction.
func BuildSurrogate(h *History, cfg SurrogateConfig) (*Surrogate, error) {
	if h.Len() == 0 {
		return nil, fmt.Errorf("core: BuildSurrogate on empty history")
	}
	b, err := newSurrogateBuilder(h.Space(), cfg)
	if err != nil {
		return nil, err
	}
	return b.Fold(h)
}

// BuildMaskedSurrogate constructs a surrogate from an explicit
// good/bad partition instead of the α-quantile value split — the seam
// multi-objective engines use to feed a Pareto-derived "good" set into
// the same factorized pg/pb density machinery (densities are assembled
// through the identical surrogateBuilder path, so masked and quantile
// builds cannot drift apart). len(goodMask) must equal h.Len(); the
// reported Threshold is NaN (no scalar split value exists).
func BuildMaskedSurrogate(h *History, goodMask []bool, cfg SurrogateConfig) (*Surrogate, error) {
	if h.Len() == 0 {
		return nil, fmt.Errorf("core: BuildMaskedSurrogate on empty history")
	}
	if len(goodMask) != h.Len() {
		return nil, fmt.Errorf("core: mask has %d entries for %d observations", len(goodMask), h.Len())
	}
	b, err := newSurrogateBuilder(h.Space(), cfg)
	if err != nil {
		return nil, err
	}
	for i, o := range h.Observations() {
		b.add(o.Config, goodMask[i])
	}
	b.n = h.Len()
	return b.assemble(h, math.NaN())
}

// Threshold returns y_τ, the good/bad split value.
func (s *Surrogate) Threshold() float64 { return s.threshold }

// GoodCount and BadCount report the partition sizes.
func (s *Surrogate) GoodCount() int { return s.nGood }

// BadCount reports the size of the bad partition.
func (s *Surrogate) BadCount() int { return s.nBad }

// Score returns the log expected-improvement score
// log pg(x) - log pb(x). The expected improvement of eq. 5 is a
// monotone function of pg/pb, so ranking by this score is equivalent
// to ranking by EI while staying numerically stable for many
// parameters.
func (s *Surrogate) Score(c space.Config) float64 {
	var score float64
	for i := range s.good {
		score += s.good[i].logProb(c[i]) - s.bad[i].logProb(c[i])
	}
	return score
}

// ScoreBatch computes Score for every row of the batch, accumulating
// into dst (dst[i] receives row i's score; len(dst) must equal
// b.Len()). Scores are accumulated per parameter column in the same
// dimension order and with the same paired subtraction as Score, so
// the results are bit-identical to calling Score row by row — only
// laid out so the discrete fast path is a contiguous table-lookup
// loop with no interface dispatch.
func (s *Surrogate) ScoreBatch(b *space.Batch, dst []float64) {
	if len(dst) != b.Len() {
		panic(fmt.Sprintf("core: ScoreBatch dst has %d slots for %d rows", len(dst), b.Len()))
	}
	for i := range dst {
		dst[i] = 0
	}
	for d := range s.good {
		col := b.Col(d)
		g, bad := s.good[d], s.bad[d]
		if gd, ok := g.(discreteDensity); ok {
			if bd, ok2 := bad.(discreteDensity); ok2 {
				gl, bl := gd.logP, bd.logP
				for i, x := range col {
					dst[i] += gl[int(x)] - bl[int(x)]
				}
				continue
			}
		}
		for i, x := range col {
			dst[i] += g.logProb(x) - bad.logProb(x)
		}
	}
}

// EI returns the expected improvement of eq. 5 up to the constant
// factor: 1 / (α + (pb/pg)(1-α)). Exposed for the Fig. 1 toy
// visualization; selection uses Score.
//
// Score can be ±Inf when a continuous density has zero mass at c
// (KDE underflow far from every kernel), and NaN when both densities
// underflow on different dimensions. Raw math.Exp would turn those
// into +Inf or NaN and poison downstream sums, so the score is
// clamped to the range where Exp is finite, and the no-signal NaN
// case maps to the neutral score 0.
func (s *Surrogate) EI(c space.Config) float64 {
	score := s.Score(c)
	if math.IsNaN(score) {
		// Zero mass under pg and pb alike: the model has no opinion.
		score = 0
	}
	// |score| <= 700 keeps Exp finite (Exp(709) overflows float64).
	if score > 700 {
		score = 700
	} else if score < -700 {
		score = -700
	}
	ratio := math.Exp(-score) // pb/pg
	return 1 / (s.alpha + ratio*(1-s.alpha))
}

// DensityAt returns pg and pb for a single parameter value, for
// plotting the Fig. 1 densities.
func (s *Surrogate) DensityAt(dim int, x float64) (pg, pb float64) {
	return math.Exp(s.good[dim].logProb(x)), math.Exp(s.bad[dim].logProb(x))
}

// SampleGood draws a configuration from the factorized good density
// pg(x) — the Proposal strategy's candidate generator (§III-D). For
// constrained spaces it retries until a valid configuration appears.
func (s *Surrogate) SampleGood(r *stats.RNG) space.Config {
	const maxTries = 10000
	for try := 0; try < maxTries; try++ {
		c := make(space.Config, len(s.good))
		for i, d := range s.good {
			c[i] = d.sample(r)
		}
		if s.sp.Valid(c) {
			return c
		}
	}
	// The good density concentrates on an invalid region; fall back to
	// a uniform valid sample rather than spinning forever.
	return s.sp.Sample(r)
}

// Importance returns the Jensen-Shannon divergence between pg and pb
// for every parameter (paper §VI, eqs. 13-14): the relative importance
// of each parameter in separating good from bad configurations.
func (s *Surrogate) Importance() []float64 {
	out := make([]float64, len(s.good))
	for i := range s.good {
		out[i] = stats.JSDivergence(s.good[i].probs(), s.bad[i].probs())
	}
	return out
}
