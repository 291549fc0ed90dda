package core

import (
	"fmt"
	"sort"

	"github.com/hpcautotune/hiperbot/internal/space"
)

// This file packages the paper's TPE surrogate as engine
// implementations: the Ranking engine (score every remaining pool
// candidate, argmax — §III-D for finite spaces) and the pool-free
// acquirer (draw candidates from pg, keep the best — for continuous
// or unenumerable spaces), registered twice: as Proposal with the
// paper's 100 draws per pick, and as "sampling" with
// DefaultCandidateSamples for grids too large to enumerate. All share
// TPEModel; they differ only in the Acquirer, which reads the model's
// acquisition surrogate (TPEModel.current).

// The paper's two selection rules (§III-D), as engine names for
// Options.Engine.
const (
	// Ranking scores every not-yet-evaluated candidate of a finite
	// pool and picks the argmax: the right choice for the discrete,
	// finite spaces of HPC applications, and it never selects a
	// configuration twice.
	Ranking = "ranking"
	// Proposal draws candidates from the good density pg(x) and picks
	// the best-scoring one: the rule for continuous spaces.
	Proposal = "proposal"
)

// proposalDraws is the Proposal engine's pg draw count per pick when
// Options.CandidateSamples is 0.
const proposalDraws = 100

func init() {
	RegisterEngine(EngineSpec{
		Name: Ranking,
		Pool: PoolRequired,
		New: func(sp *space.Space, opts Options, pool *Pool) (Model, Acquirer, error) {
			m := &TPEModel{cfg: opts.Surrogate}
			return m, RankingAcquirer(func(a *Acquisition, dst []float64) error {
				return m.current().ScorePool(a.Pool, a.Parallelism, dst)
			}), nil
		},
	})
	RegisterEngine(EngineSpec{
		Name: Proposal,
		Pool: PoolUnused,
		New: func(sp *space.Space, opts Options, pool *Pool) (Model, Acquirer, error) {
			m := &TPEModel{cfg: opts.Surrogate}
			return m, ProposalAcquirer(m.current), nil
		},
	})
	RegisterEngine(EngineSpec{
		Name: "sampling",
		Pool: PoolUnused,
		New: func(sp *space.Space, opts Options, pool *Pool) (Model, Acquirer, error) {
			m := &TPEModel{cfg: opts.Surrogate}
			return m, samplingAcquirer{draws: DefaultCandidateSamples, surrogate: m.current}, nil
		},
	})
}

// TPEModel fits the factorized pg/pb Surrogate (paper eq. 7-8) for the
// TPE engines. Fit is incremental: a generation-stamped
// surrogateBuilder keeps the sufficient statistics (sorted values,
// category counts, partition membership) across calls, so a fit after
// k new observations costs O(k·dims + flips) instead of O(n·dims),
// and a fit with no new observations is a cache hit that does no work
// at all. Results are bit-identical to a cold BuildSurrogate (the
// golden sequences and TestIncrementalFitMatchesCold pin this).
type TPEModel struct {
	cfg SurrogateConfig
	s   *Surrogate

	b       *surrogateBuilder
	fitHist *History // history the builder is tracking
	fitGen  uint64   // history generation of the current fit

	// active is the surrogate serving acquisition (current): the
	// exact surrogate s when no work is pending, or a fantasy surrogate
	// (observed + constant-liar pending, see History.Fantasized) cached
	// under the composed (generation, pending hash) key. The exact
	// incremental fit always runs first, so the no-pending path is
	// bit-identical to the pre-overlay behavior and introspection
	// (Importance, Marginals, Surrogate) keeps reporting real data.
	// The fantasy is built in fb, whose buffers every fantasized fit
	// reuses: b's statistics copied, plus the overlay folded in.
	active   *Surrogate
	fb       surrogateBuilder
	fant     *Surrogate
	fantGen  uint64
	fantPend uint64

	imp    []float64  // cached Importance (JS divergences)
	impFor *Surrogate // surrogate imp was computed from
}

// Fit brings the surrogate up to date with the history. When the
// history's generation and pending overlay are unchanged since the
// last successful Fit this is a no-op; otherwise only the new
// observations (and any membership flips caused by the moved
// α-quantile) are folded in, plus — when in-flight work exists — the
// fantasy fit: the exact statistics copied, with the pending overlay's
// constant-liar rows folded on top (surrogateBuilder.foldPending),
// bit-identical to a cold fit of the observed+fantasized view.
func (m *TPEModel) Fit(h *History) error {
	if err := m.fitExact(h); err != nil {
		return err
	}
	if h.PendingLen() == 0 {
		m.active = m.s
		return nil
	}
	gen, pend := h.Generation(), h.PendingHash()
	if m.fant == nil || m.fantGen != gen || m.fantPend != pend {
		s, err := m.fb.foldPending(m.b, h)
		if err != nil {
			return err
		}
		m.fant = s
		m.fantGen = gen
		m.fantPend = pend
	}
	m.active = m.fant
	return nil
}

// fitExact is the exact half of Fit: it folds the observed history
// into the incremental surrogate s and builds no fantasy, which only
// acquisition reads. Introspection (Importance, Marginals) needs no
// more, so Importance fits through this instead of Fit. The surrogate
// serving acquisition is left as the last Fit chose it.
func (m *TPEModel) fitExact(h *History) error {
	gen := h.Generation()
	if m.s != nil && m.fitHist == h && m.fitGen == gen {
		return nil
	}
	if m.b == nil || m.fitHist != h || m.b.n > h.Len() {
		b, err := newSurrogateBuilder(h.Space(), m.cfg)
		if err != nil {
			return err
		}
		m.b = b
		m.fant = nil
		m.fitHist = h
	}
	s, err := m.b.Fold(h)
	if err != nil {
		return err
	}
	m.s = s
	m.fitGen = gen
	return nil
}

// current returns the surrogate serving acquisition, as the last Fit
// chose it: the fantasized one when that fit saw pending work, else
// the exact one.
func (m *TPEModel) current() *Surrogate { return m.active }

// Importance folds the observed history into the exact fit — never a
// fantasy around pending work — and returns the per-parameter JS
// divergence between its pg and pb. The result is cached per fitted
// surrogate, so repeated calls between evaluations (e.g. a session
// info publish after every ask) cost nothing; callers must not mutate
// the returned slice.
func (m *TPEModel) Importance(h *History) ([]float64, error) {
	if err := m.fitExact(h); err != nil {
		return nil, err
	}
	if m.imp == nil || m.impFor != m.s {
		m.imp = m.s.Importance()
		m.impFor = m.s
	}
	return m.imp, nil
}

// Marginals exposes the fitted densities for rendering (nil before
// the first Fit); see Marginaler.
func (m *TPEModel) Marginals() []MarginalReport {
	if m.s == nil {
		return nil
	}
	return m.s.Marginals()
}

// Surrogate returns the most recently fitted surrogate (nil before
// the first Fit), for analyses that need the concrete densities.
func (m *TPEModel) Surrogate() *Surrogate { return m.s }

// RankingAcquirer returns the pool-scoring acquirer — argmax over all
// unevaluated candidates at k = 1, top-k diversified by Hamming
// distance otherwise — around score, which fills dst[i] with the
// fitted model's score of pool candidate i (len(dst) is the pool size;
// higher is better). The ranking and motpe engines score with their
// surrogate's ScorePool, the GP-EI engine copies its cached expected
// improvement. Each call returns a new acquirer owning its scoring
// buffers, so an engine factory calls it once per tuner; a score that
// allocates nothing gives an allocation-free warm ask.
func RankingAcquirer(score func(a *Acquisition, dst []float64) error) Acquirer {
	return &rankingAcquirer{score: score}
}

// ProposalAcquirer returns the pool-free acquirer of the Proposal
// engine — draw 100 candidates per pick (or Options.CandidateSamples)
// from the good density of the fitted surrogate, which surrogate
// returns, and keep the best-scoring unevaluated ones — for engines
// registered outside this package that need pool-free acquisition
// (e.g. the motpe engine on continuous or unenumerable spaces).
func ProposalAcquirer(surrogate func() *Surrogate) Acquirer {
	return samplingAcquirer{draws: proposalDraws, surrogate: surrogate}
}

// samplingAcquirer is pool-free TPE acquisition, the paper's Proposal
// rule: draw CandidateSamples·k configurations from the fitted good
// density pg (draws·k when CandidateSamples is 0), deduplicate, drop
// evaluated and leased ones, score the rest in one columnar ScoreAll
// pass — the same hot path ranking uses, so acquisition cost is
// dominated by the draws — and keep the top k by (score desc, draw
// order asc). The Proposal and "sampling" engines are this acquirer
// with different draw counts.
type samplingAcquirer struct {
	draws     int               // pg draws per pick when Acquisition.CandidateSamples is 0
	surrogate func() *Surrogate // the model's surrogate serving acquisition, read after each fit
}

func (s samplingAcquirer) Propose(a *Acquisition, k int) ([]space.Config, error) {
	draws := a.CandidateSamples
	if draws <= 0 {
		draws = s.draws
	}
	draws *= k
	sur := s.surrogate()
	cands := newConfigSet(a.History.identity(), draws)
	cands.rows = make([]space.Config, 0, draws)
	for i := 0; i < draws; i++ {
		c := sur.SampleGood(a.RNG)
		h := cands.id.hash(c)
		if !a.History.observedOrPending(c, h) {
			cands.add(c, h)
		}
	}
	return pickTop(a, sur, cands.rows, k)
}

// pickTop is the score-and-pick tail the pool-free acquirers share:
// it scores cands under s in one ScoreAll pass and keeps the best k by
// (score desc, index asc). When no candidate is left — every one was
// evaluated, leased, or invalid, so the good density has collapsed
// onto known points — it explores with one uniform draw instead, and
// an empty result means that found nothing either.
func pickTop(a *Acquisition, s *Surrogate, cands []space.Config, k int) ([]space.Config, error) {
	if len(cands) == 0 {
		return drawUniform(a, 1), nil
	}
	batch, err := space.NewBatch(a.Space, cands)
	if err != nil {
		return nil, err
	}
	scores := make([]float64, len(cands))
	ScoreAll(s, batch, a.Parallelism, scores)
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

// rankingAcquirer scores every remaining pool candidate and picks the
// argmax (k = 1) or the top-k diversified by Hamming distance. Every
// call rescores the whole pool; the fields after score are buffers
// reused across calls, never read before the call that fills them.
type rankingAcquirer struct {
	score func(a *Acquisition, dst []float64) error // fills the model's score of every pool candidate

	scores []float64      // model scores, indexed by candidate
	rank   rankedPool     // the remaining pool by (score desc, idx asc)
	picks  []space.Config // the Propose result
}

func (r *rankingAcquirer) Propose(a *Acquisition, k int) ([]space.Config, error) {
	p := a.Pool
	if p == nil {
		return nil, fmt.Errorf("core: ranking acquisition requires a candidate pool")
	}
	rem := p.Remaining()
	if len(rem) == 0 {
		return nil, nil
	}
	if cap(r.scores) < p.Size() {
		r.scores = make([]float64, p.Size())
	}
	scores := r.scores[:p.Size()]
	if err := r.score(a, scores); err != nil {
		return nil, err
	}

	if k == 1 {
		// Argmax over the remaining pool net of leases — exactly the
		// paper's per-iteration selection (with no lease live the scan
		// is the original argmax). A tie keeps the first maximum in
		// Pool.Remaining() order, which is swap-removal order, not the
		// smallest candidate index; batch mode below ranks ties by
		// index instead.
		best := -1
		for i := 0; i < len(rem); i++ {
			if p.Leased(rem[i]) {
				continue
			}
			if best < 0 || scores[rem[i]] > scores[rem[best]] {
				best = i
			}
		}
		if best < 0 {
			return nil, nil // everything remaining is skipped (leased)
		}
		r.picks = append(r.picks[:0], p.Candidate(rem[best]))
		return r.picks, nil
	}

	// Batch mode: rank the pool, then greedily admit candidates at
	// pairwise Hamming distance >= minDist, relaxing the requirement
	// whenever a pass admits nothing (pure top-k degenerates to the
	// argmax and its immediate neighbors). Lease filtering happens at
	// admission, so the ranking covers the whole remaining pool.
	r.rank.reset(rem, scores)
	picks := r.picks[:0]
	minDist := 2
	for len(picks) < k && minDist >= 0 {
		admitted := 0
		for i := 0; len(picks) < k; i++ {
			cand, ok := r.rank.at(i)
			if !ok {
				break
			}
			c := p.Candidate(cand.idx)
			if p.Leased(cand.idx) || containsConfig(picks, c) {
				continue
			}
			if minHamming(picks, c) >= minDist {
				picks = append(picks, c)
				admitted++
			}
		}
		if admitted == 0 || len(picks) < k {
			minDist-- // relax diversity until the batch fills
		}
	}
	r.picks = picks
	return picks, nil
}

// rankedCandidate pairs a pool candidate index with its model score,
// the unit of the ranking acquirer's sorted view of the pool.
type rankedCandidate struct {
	idx   int
	score float64
}

// rankedPool is a lazily sorted view of the remaining pool: a sorted
// prefix grown on demand by popping a max-heap of the rest. The batch
// acquirer usually admits its k picks from a short prefix, so this
// costs O(n + e·log n) for e extracted entries instead of the
// O(n·log n) of sorting the whole pool on every call, while position
// i always holds exactly the candidate a full sort would put there
// (the comparator is a strict total order: the index breaks ties).
type rankedPool struct {
	sorted []rankedCandidate // extracted prefix, in final order
	heap   []rankedCandidate // max-heap of the not-yet-extracted rest
}

// rankedBefore is the strict total order shared by the heap and the
// extracted prefix.
func rankedBefore(a, b rankedCandidate) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.idx < b.idx
}

// reset reloads the view from the remaining pool and its scores,
// reusing both buffers.
func (r *rankedPool) reset(rem []int, scores []float64) {
	r.sorted = r.sorted[:0]
	if cap(r.heap) < len(rem) {
		r.heap = make([]rankedCandidate, len(rem))
	}
	r.heap = r.heap[:len(rem)]
	for i, idx := range rem {
		r.heap[i] = rankedCandidate{idx: idx, score: scores[idx]}
	}
	for i := len(r.heap)/2 - 1; i >= 0; i-- {
		r.siftDown(i)
	}
}

func (r *rankedPool) siftDown(i int) {
	h := r.heap
	for {
		child := 2*i + 1
		if child >= len(h) {
			return
		}
		if right := child + 1; right < len(h) && rankedBefore(h[right], h[child]) {
			child = right
		}
		if !rankedBefore(h[child], h[i]) {
			return
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}

// at returns the i-th best remaining candidate, extending the sorted
// prefix as needed; ok is false past the end of the pool.
func (r *rankedPool) at(i int) (rankedCandidate, bool) {
	for i >= len(r.sorted) {
		if len(r.heap) == 0 {
			return rankedCandidate{}, false
		}
		top := r.heap[0]
		last := len(r.heap) - 1
		r.heap[0] = r.heap[last]
		r.heap = r.heap[:last]
		r.siftDown(0)
		r.sorted = append(r.sorted, top)
	}
	return r.sorted[i], true
}

func containsConfig(set []space.Config, c space.Config) bool {
	for _, s := range set {
		if s.Equal(c) {
			return true
		}
	}
	return false
}

// minHamming returns the smallest Hamming distance from c to any
// configuration in set (or a large value for an empty set).
func minHamming(set []space.Config, c space.Config) int {
	if len(set) == 0 {
		return 1 << 30
	}
	min := 1 << 30
	for _, s := range set {
		d := 0
		for i := range c {
			if s[i] != c[i] {
				d++
			}
		}
		if d < min {
			min = d
		}
	}
	return min
}
