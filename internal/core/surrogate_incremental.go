package core

import (
	"fmt"
	"sort"

	"github.com/hpcautotune/hiperbot/internal/space"
	"github.com/hpcautotune/hiperbot/internal/stats"
)

// surrogateBuilder maintains the surrogate's sufficient statistics
// incrementally across an append-only history, so refitting after a
// Tell touches only the new observations (plus any whose good/bad
// membership flips when the α-quantile threshold moves) instead of
// re-histogramming the entire history.
//
// Bit-identity with a cold BuildSurrogate is a hard requirement (the
// golden selection sequences pin it), and falls out of three facts:
//
//   - the threshold: stats.Quantile sorts a copy of the values and
//     interpolates; the builder maintains the same sorted multiset by
//     insertion and applies stats.QuantileSorted — identical input,
//     identical interpolation.
//   - discrete counts: category counts are integer-valued float64s,
//     and integer adds/subtracts below 2^53 are exact, so counts
//     maintained by ±1 updates equal counts recomputed from scratch;
//     CategoricalFromCounts then consumes them in index order either
//     way.
//   - continuous points: KDE point sets are gathered by scanning the
//     history in evaluation order and filtering on membership —
//     exactly the order the cold path's partition loop produces.
//
// The same facts make the fantasized surrogate incremental too
// (foldPending): the exact statistics plus the pending overlay's
// constant-liar rows equal a cold fold of History.Fantasized(), whose
// extra rows are exactly those, appended after the observations.
//
// Both the cold path (BuildSurrogate) and the incremental path
// (TPEModel.Fit) assemble the final densities through the same
// assemble/density code below, so they cannot drift apart.
type surrogateBuilder struct {
	sp  *space.Space
	cfg SurrogateConfig // defaulted and validated

	n      int       // observations folded in so far
	sorted []float64 // all folded values, ascending
	// goodMask holds one membership bit per folded row: the n
	// observations, then — in a fantasy builder only — the pending
	// overlay in History.pend order.
	goodMask []bool
	nGood    int
	nBad     int

	// Per-dimension category counts for discrete parameters (nil
	// entries for continuous dimensions). Values are exact integers.
	goodCounts [][]float64
	badCounts  [][]float64
}

// newSurrogateBuilder validates the configuration (including prior
// compatibility) and prepares empty statistics.
func newSurrogateBuilder(sp *space.Space, cfg SurrogateConfig) (*surrogateBuilder, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := checkPriorCompatible(sp, cfg.Prior); err != nil {
		return nil, err
	}
	b := &surrogateBuilder{
		sp:         sp,
		cfg:        cfg,
		goodCounts: make([][]float64, sp.NumParams()),
		badCounts:  make([][]float64, sp.NumParams()),
	}
	for i := 0; i < sp.NumParams(); i++ {
		if p := sp.Param(i); p.Kind == space.DiscreteKind {
			b.goodCounts[i] = make([]float64, p.Cardinality())
			b.badCounts[i] = make([]float64, p.Cardinality())
		}
	}
	return b, nil
}

// checkPriorCompatible verifies a transfer prior's space matches the
// target space parameter by parameter.
func checkPriorCompatible(sp *space.Space, prior *Prior) error {
	if prior == nil || prior.sp == sp {
		return nil
	}
	if prior.sp.NumParams() != sp.NumParams() {
		return fmt.Errorf("core: prior space has %d parameters, target has %d",
			prior.sp.NumParams(), sp.NumParams())
	}
	for i := 0; i < sp.NumParams(); i++ {
		a, b := prior.sp.Param(i), sp.Param(i)
		if a.Name != b.Name || a.Kind != b.Kind || a.Cardinality() != b.Cardinality() {
			return fmt.Errorf("core: prior parameter %d (%s) incompatible with target (%s)",
				i, a.Name, b.Name)
		}
	}
	return nil
}

// Fold folds observations [b.n, h.Len()) into the statistics and
// assembles a fresh surrogate. The history must be the same
// append-only history across calls; a caller seeing a different
// History object must start a new builder.
func (b *surrogateBuilder) Fold(h *History) (*Surrogate, error) {
	if h.Space() != b.sp {
		return nil, fmt.Errorf("core: surrogate builder fed a history over a different space")
	}
	if h.Len() == 0 {
		return nil, fmt.Errorf("core: BuildSurrogate on empty history")
	}
	obs := h.Observations()
	if len(obs) < b.n {
		return nil, fmt.Errorf("core: history shrank from %d to %d observations", b.n, len(obs))
	}
	added := obs[b.n:]
	for _, o := range added {
		b.insertValue(o.Value, 1)
	}
	threshold := stats.QuantileSorted(b.sorted, b.cfg.Quantile)
	b.flip(obs[:b.n], threshold)
	for _, o := range added {
		b.add(o.Config, o.Value <= threshold)
	}
	b.n = len(obs)
	return b.assemble(h, threshold)
}

// foldPending makes b the fantasized statistics of h — a copy of
// exact, which must have folded every observation of h, extended with
// one constant-liar row per pending configuration — and assembles the
// fantasized surrogate. b's buffers are reused, so a fit that sees
// only the overlay change costs O(n) copying and comparing but no
// allocation proportional to n. The result is bit-identical to a cold
// Fold of h.Fantasized(): the same values are inserted in the same
// order, and the overlay rows follow the observations in h.pend order.
func (b *surrogateBuilder) foldPending(exact *surrogateBuilder, h *History) (*Surrogate, error) {
	if exact.n != h.Len() {
		return nil, fmt.Errorf("core: fantasy fold of %d observations over exact statistics of %d", h.Len(), exact.n)
	}
	b.copyFrom(exact)
	lie := h.liarValue()
	b.insertValue(lie, len(h.pend.rows))
	threshold := stats.QuantileSorted(b.sorted, b.cfg.Quantile)
	b.flip(h.Observations(), threshold)
	for _, c := range h.pend.rows {
		b.add(c, lie <= threshold)
	}
	return b.assemble(h, threshold)
}

// copyFrom overwrites b's statistics with src's, reusing b's buffers
// (a zero builder allocates them on first use).
func (b *surrogateBuilder) copyFrom(src *surrogateBuilder) {
	b.sp, b.cfg = src.sp, src.cfg
	b.n, b.nGood, b.nBad = src.n, src.nGood, src.nBad
	b.sorted = append(b.sorted[:0], src.sorted...)
	b.goodMask = append(b.goodMask[:0], src.goodMask...)
	b.goodCounts = copyCounts(b.goodCounts, src.goodCounts)
	b.badCounts = copyCounts(b.badCounts, src.badCounts)
}

// copyCounts copies per-dimension category counts into dst's buffers,
// keeping the nil entries of continuous dimensions.
func copyCounts(dst, src [][]float64) [][]float64 {
	if len(dst) != len(src) {
		dst = make([][]float64, len(src))
	}
	for d, c := range src {
		if c == nil {
			dst[d] = nil
			continue
		}
		dst[d] = append(dst[d][:0], c...)
	}
	return dst
}

// insertValue adds k copies of v to the sorted multiset of folded
// values. Each copy lands at the first index holding a value >= v, so
// one call with k copies leaves the slice as k calls with one would.
func (b *surrogateBuilder) insertValue(v float64, k int) {
	i := sort.SearchFloat64s(b.sorted, v)
	n := len(b.sorted)
	b.sorted = append(b.sorted, make([]float64, k)...)
	copy(b.sorted[i+k:], b.sorted[i:n])
	for j := i; j < i+k; j++ {
		b.sorted[j] = v
	}
}

// flip re-partitions rows, the first len(rows) folded rows, at a moved
// threshold: a row whose membership changed (good↔bad) moves its
// counts to the other partition. Callers flip the rows already folded
// before adding new ones. The scan indexes rows rather than ranging
// over copies: it reads one field of every observation on every fit.
func (b *surrogateBuilder) flip(rows []Observation, threshold float64) {
	for i := range rows {
		good := rows[i].Value <= threshold
		if good == b.goodMask[i] {
			continue
		}
		b.count(rows[i].Config, b.goodMask[i], -1)
		b.count(rows[i].Config, good, +1)
		if good {
			b.nGood++
			b.nBad--
		} else {
			b.nGood--
			b.nBad++
		}
		b.goodMask[i] = good
	}
}

// add folds one new row into the given partition.
func (b *surrogateBuilder) add(c space.Config, good bool) {
	b.goodMask = append(b.goodMask, good)
	b.count(c, good, +1)
	if good {
		b.nGood++
	} else {
		b.nBad++
	}
}

// count applies delta (±1) to every discrete dimension's category
// count in the given partition.
func (b *surrogateBuilder) count(c space.Config, good bool, delta float64) {
	counts := b.badCounts
	if good {
		counts = b.goodCounts
	}
	for d, cc := range counts {
		if cc != nil {
			cc[int(c[d])] += delta
		}
	}
}

// assemble builds the Surrogate from the current statistics.
func (b *surrogateBuilder) assemble(h *History, threshold float64) (*Surrogate, error) {
	sp, cfg := b.sp, b.cfg
	s := &Surrogate{
		sp:        sp,
		threshold: threshold,
		nGood:     b.nGood,
		nBad:      b.nBad,
		alpha:     cfg.Quantile,
	}
	s.good = make([]density, sp.NumParams())
	s.bad = make([]density, sp.NumParams())
	for i := 0; i < sp.NumParams(); i++ {
		var priorGood, priorBad density
		if cfg.Prior != nil {
			priorGood, priorBad = cfg.Prior.good[i], cfg.Prior.bad[i]
		}
		s.good[i] = b.density(h, i, true, priorGood)
		s.bad[i] = b.density(h, i, false, priorBad)
	}
	return s, nil
}

// density estimates one parameter's density for one partition from
// the maintained statistics, optionally mixing in a source-domain
// prior — the shared construction path for cold and incremental fits.
func (b *surrogateBuilder) density(h *History, dim int, good bool, prior density) density {
	p := b.sp.Param(dim)
	cfg := b.cfg
	n := b.nBad
	if good {
		n = b.nGood
	}
	switch p.Kind {
	case space.DiscreteKind:
		var cat *stats.Categorical
		if n == 0 {
			cat = stats.NewCategorical(p.Cardinality())
		} else {
			counts := b.badCounts[dim]
			if good {
				counts = b.goodCounts[dim]
			}
			cat = stats.CategoricalFromCounts(counts, cfg.Smoothing)
		}
		if prior != nil && cfg.PriorWeight > 0 {
			cat = stats.Mix(prior.(discreteDensity).cat, cfg.PriorWeight, cat, 1)
		}
		return newDiscreteDensity(cat)
	case space.ContinuousKind:
		var kde *stats.KDE
		if n == 0 {
			kde = stats.UniformKDE(p.Lo, p.Hi)
		} else {
			points := make([]float64, 0, n)
			for i, o := range h.Observations()[:b.n] {
				if b.goodMask[i] == good {
					points = append(points, o.Config[dim])
				}
			}
			for j, c := range h.pend.rows[:len(b.goodMask)-b.n] {
				if b.goodMask[b.n+j] == good {
					points = append(points, c[dim])
				}
			}
			kde = stats.NewKDE(points, cfg.Bandwidth)
			kde.SetBounds(p.Lo, p.Hi)
		}
		if prior != nil && cfg.PriorWeight > 0 {
			kde = stats.MergeKDE(prior.(continuousDensity).kde, cfg.PriorWeight, kde, 1)
			kde.SetBounds(p.Lo, p.Hi)
		}
		return continuousDensity{kde: kde, lo: p.Lo, hi: p.Hi, bins: cfg.Bins}
	default:
		panic(fmt.Sprintf("core: unknown parameter kind %v", p.Kind))
	}
}
