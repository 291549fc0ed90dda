package core

import (
	"fmt"
	"sort"
	"strings"

	"github.com/hpcautotune/hiperbot/internal/space"
	"github.com/hpcautotune/hiperbot/internal/stats"
)

// The "grouped" engine factors acquisition over parameter groups — the
// BoGraph direction for many-parameter spaces. The flat TPE surrogate
// is already fully per-dimension factorized and its good/bad split is
// a function of the observed values alone, so a group's pg/pb
// surrogate is exactly the restriction of the flat surrogate to the
// group's dimensions: one incremental flat fit (with its existing
// (generation, pendingHash) cache keys) serves every group, and a
// per-group view costs a slice of densities, never a refit.
//
// What the grouping changes is acquisition. Flat sampling draws whole
// configurations from the joint pg — at 40 dimensions the chance that
// one draw lands in the good region of every dimension simultaneously
// is tiny, so the sampled candidate set rarely contains the separable
// optimum. The grouped acquirer instead finds each group's best
// sub-assignments independently (streaming enumeration when the
// sub-grid is small, pg-draws per subspace otherwise), composes them
// coordinate-wise, and polishes across groups by ranking the composed
// candidates with the full-joint score. Per-ask cost is bounded by
// per-group work (groupEnumerateLimit / CandidateSamples) plus the
// polish width — it does not grow with the total grid size.
//
// A grouping with one group over every parameter is definitionally the
// flat joint; the acquirer routes that case straight through the
// sampling acquirer, so single-group runs are bit-identical to engine
// "sampling" (pinned by TestGroupedSingleGroupMatchesSampling).

const (
	// groupEnumerateLimit is the sub-grid size up to which a group's
	// sub-assignments are enumerated exhaustively (streaming odometer
	// walk, no materialization); larger groups fall back to pg-draws
	// per subspace.
	groupEnumerateLimit = 4096
	// topPerGroup is how many best sub-assignments each group
	// contributes to the cross-group composition/polish pass.
	topPerGroup = 16
	// polishDraws is how many joint resamples of the per-group top
	// lists the polish pass ranks with the full-joint score (scaled by
	// k for batch asks).
	polishDraws = 64
	// maxAutoGroupSize caps group size under auto-grouping so one noisy
	// interaction estimate cannot glue the space back into a flat joint.
	maxAutoGroupSize = 8
	// autoInteractionEps is the pairwise-interaction excess below which
	// auto-grouping treats two parameters as independent.
	autoInteractionEps = 0.02
	// autoJointLimit bounds the joint-histogram size (cardinality
	// product) auto-grouping is willing to estimate per pair.
	autoJointLimit = 1024
)

func init() {
	RegisterEngine(EngineSpec{
		Name: "grouped",
		Pool: PoolUnused,
		New: func(sp *space.Space, opts Options, pool *Pool) (Model, Acquirer, error) {
			m, err := NewGroupedModel(sp, opts)
			if err != nil {
				return nil, nil, err
			}
			return m, groupedAcquirer{m: m}, nil
		},
	})
}

// ParseGroups parses the CLI/flag spelling of a grouping —
// semicolon-separated groups of comma-separated parameter names, e.g.
// "opt_level,unroll;tile,align" — into the Options.Groups shape. Empty
// input returns nil (auto-grouping); blank names are dropped.
func ParseGroups(s string) [][]string {
	var out [][]string
	for _, group := range strings.Split(s, ";") {
		var names []string
		for _, name := range strings.Split(group, ",") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
		if len(names) > 0 {
			out = append(out, names)
		}
	}
	return out
}

// ValidateGroups checks a user-supplied grouping against a space
// without building an engine: every name must exist and appear at most
// once. Servers call it before journaling a session create, so a bad
// grouping is a 400, not a poisoned journal.
func ValidateGroups(sp *space.Space, groups [][]string) error {
	if groups == nil {
		return nil
	}
	_, err := resolveGroups(sp, groups)
	return err
}

// resolveGroups turns name lists into sorted dimension-index groups,
// appending every unmentioned parameter as a singleton group (in
// declaration order), so a partial spec is a valid partition.
func resolveGroups(sp *space.Space, spec [][]string) ([][]int, error) {
	used := make(map[int]bool, sp.NumParams())
	var groups [][]int
	for _, names := range spec {
		var dims []int
		for _, name := range names {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			d := sp.IndexOf(name)
			if d < 0 {
				return nil, fmt.Errorf("core: groups: unknown parameter %q", name)
			}
			if used[d] {
				return nil, fmt.Errorf("core: groups: parameter %q appears more than once", name)
			}
			used[d] = true
			dims = append(dims, d)
		}
		if len(dims) == 0 {
			continue
		}
		sort.Ints(dims)
		groups = append(groups, dims)
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("core: groups: no parameters named")
	}
	for d := 0; d < sp.NumParams(); d++ {
		if !used[d] {
			groups = append(groups, []int{d})
		}
	}
	return groups, nil
}

// GroupedModel is the flat TPEModel plus a resolved (or
// to-be-auto-proposed) partition of the dimensions. Fitting and
// introspection delegate to the flat model — the factorized surrogate
// restricted to a group IS the group's surrogate — while the grouped
// acquirer, which holds the model, reads the partition and the flat
// fit and fills the per-group top lists.
type GroupedModel struct {
	sp   *space.Space
	flat *TPEModel

	groups [][]int // resolved partition; nil until the first fit when auto
	auto   bool
	subs   []*groupSub
}

// NewGroupedModel validates Options.Groups against the space (nil
// Groups defers to auto-grouping at the first fit). The grouped
// engine's per-subspace enumeration needs a fully discrete space.
func NewGroupedModel(sp *space.Space, opts Options) (*GroupedModel, error) {
	if !sp.AllDiscrete() {
		return nil, fmt.Errorf("core: the grouped engine needs a fully discrete space (for continuous parameters use proposal or sampling)")
	}
	m := &GroupedModel{sp: sp, flat: &TPEModel{cfg: opts.Surrogate}}
	if opts.Groups != nil {
		groups, err := resolveGroups(sp, opts.Groups)
		if err != nil {
			return nil, err
		}
		m.setGroups(groups)
	} else {
		m.auto = true
	}
	return m, nil
}

// setGroups installs a resolved partition and builds the per-group
// acquisition buffers.
func (m *GroupedModel) setGroups(groups [][]int) {
	m.groups = groups
	m.subs = make([]*groupSub, len(groups))
	for i, dims := range groups {
		grid := uint64(1)
		for _, d := range dims {
			card := uint64(m.sp.Param(d).Cardinality())
			if card == 0 || grid > (1<<62)/card {
				grid = 0 // overflow: treat as too large to enumerate
				break
			}
			grid *= card
		}
		m.subs[i] = &groupSub{dims: dims, grid: grid}
	}
}

// Groups reports the resolved partition as parameter-name lists (nil
// before the first fit under auto-grouping).
func (m *GroupedModel) Groups() [][]string {
	if m.groups == nil {
		return nil
	}
	out := make([][]string, len(m.groups))
	for i, dims := range m.groups {
		names := make([]string, len(dims))
		for j, d := range dims {
			names[j] = m.sp.Param(d).Name
		}
		out[i] = names
	}
	return out
}

// degenerate reports whether the partition is one group over every
// parameter — the case the acquirer routes through the flat sampling
// path for exact single-group degeneracy.
func (m *GroupedModel) degenerate() bool {
	return len(m.groups) == 1 && len(m.groups[0]) == m.sp.NumParams()
}

// Fit delegates to the incremental flat fit (whose (generation,
// pendingHash) caches make repeat calls free), then — once, at the
// first fit — resolves the auto-proposed grouping from the fitted
// densities. The partition is frozen afterwards: regrouping mid-run
// would move the search's structure under it for no measured gain.
func (m *GroupedModel) Fit(h *History) error {
	if err := m.flat.Fit(h); err != nil {
		return err
	}
	if m.groups == nil {
		m.setGroups(m.autoGroups(h))
	}
	return nil
}

// Importance reports the per-parameter JS divergences of the flat
// exact fit — the same marginals auto-grouping starts from. Until the
// auto-proposed partition is resolved it runs the full Fit first, so
// the partition comes from the first fit whichever caller makes it.
func (m *GroupedModel) Importance(h *History) ([]float64, error) {
	if m.groups == nil {
		if err := m.Fit(h); err != nil {
			return nil, err
		}
	}
	return m.flat.Importance(h)
}

// Marginals exposes the fitted densities for rendering.
func (m *GroupedModel) Marginals() []MarginalReport { return m.flat.Marginals() }

// autoGroups proposes a partition from the fitted surrogate: greedily
// merge parameter pairs whose joint good/bad divergence exceeds what
// the product of their marginals explains (positive interaction
// excess), strongest pairs first, capped at maxAutoGroupSize;
// everything else stays a singleton. With 20–40 initial observations
// the estimates are noisy — a missed interaction costs only polish
// quality, while a spurious merge costs one bigger sub-enumeration —
// so the epsilon errs toward singletons.
func (m *GroupedModel) autoGroups(h *History) [][]int {
	s := m.flat.current()
	n := m.sp.NumParams()
	obs := h.Observations()
	if h.PendingLen() > 0 {
		obs = h.Fantasized().Observations()
	}
	type pairScore struct {
		i, j   int
		excess float64
	}
	var pairs []pairScore
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ci := m.sp.Param(i).Cardinality()
			cj := m.sp.Param(j).Cardinality()
			if ci*cj > autoJointLimit {
				continue
			}
			excess := interactionExcess(s, obs, i, j, ci, cj)
			if excess > autoInteractionEps {
				pairs = append(pairs, pairScore{i: i, j: j, excess: excess})
			}
		}
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].excess != pairs[b].excess {
			return pairs[a].excess > pairs[b].excess
		}
		if pairs[a].i != pairs[b].i {
			return pairs[a].i < pairs[b].i
		}
		return pairs[a].j < pairs[b].j
	})
	parent := make([]int, n)
	size := make([]int, n)
	for i := range parent {
		parent[i], size[i] = i, 1
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, p := range pairs {
		ri, rj := find(p.i), find(p.j)
		if ri == rj || size[ri]+size[rj] > maxAutoGroupSize {
			continue
		}
		parent[rj] = ri
		size[ri] += size[rj]
	}
	byRoot := make(map[int][]int, n)
	var roots []int
	for d := 0; d < n; d++ {
		r := find(d)
		if _, ok := byRoot[r]; !ok {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], d)
	}
	groups := make([][]int, 0, len(roots))
	for _, r := range roots {
		groups = append(groups, byRoot[r])
	}
	return groups
}

// interactionExcess measures how much more the good and bad partitions
// disagree about the joint (i, j) histogram than about the product of
// their marginals: ≈ 0 when the two parameters act independently,
// positive when their joint carries structure the factorized surrogate
// cannot represent.
func interactionExcess(s *Surrogate, obs []Observation, i, j, ci, cj int) float64 {
	thr := s.Threshold()
	goodJoint := make([]float64, ci*cj)
	badJoint := make([]float64, ci*cj)
	for k := range goodJoint {
		goodJoint[k], badJoint[k] = 1, 1 // Laplace smoothing, like the marginals
	}
	for _, o := range obs {
		cell := int(o.Config[i])*cj + int(o.Config[j])
		if o.Value <= thr {
			goodJoint[cell]++
		} else {
			badJoint[cell]++
		}
	}
	normalizeProbs(goodJoint)
	normalizeProbs(badJoint)
	gi, gj := s.good[i].probs(), s.good[j].probs()
	bi, bj := s.bad[i].probs(), s.bad[j].probs()
	goodProd := make([]float64, ci*cj)
	badProd := make([]float64, ci*cj)
	for a := 0; a < ci; a++ {
		for b := 0; b < cj; b++ {
			goodProd[a*cj+b] = gi[a] * gj[b]
			badProd[a*cj+b] = bi[a] * bj[b]
		}
	}
	return stats.JSDivergence(goodJoint, badJoint) - stats.JSDivergence(goodProd, badProd)
}

func normalizeProbs(p []float64) {
	var sum float64
	for _, v := range p {
		sum += v
	}
	if sum <= 0 {
		return
	}
	for k := range p {
		p[k] /= sum
	}
}

// groupSub is one group's acquisition state: its dimensions, sub-grid
// size, and the buffers of its top-m sub-assignments, which every ask
// refills under the current fit.
type groupSub struct {
	dims []int  // parameter indices, ascending
	grid uint64 // sub-grid size (0 = overflows uint64 bounds)

	top       [][]float64 // best sub-assignments (level indices per dim), score desc
	topScores []float64
}

// refresh recomputes the group's top sub-assignments under the current
// surrogate.
func (g *groupSub) refresh(a *Acquisition, s *Surrogate) error {
	if g.grid != 0 && g.grid <= groupEnumerateLimit {
		g.enumerateTop(s, topPerGroup)
	} else {
		g.sampleTop(a, s, topPerGroup)
	}
	if len(g.top) == 0 {
		return fmt.Errorf("core: grouped acquisition: group %v produced no sub-assignments", g.dims)
	}
	return nil
}

// enumerateTop walks the group's sub-grid with a mixed-radix odometer
// (the per-subspace use of the streaming-enumeration idea: nothing is
// materialized beyond the top-m list) and keeps the m best
// sub-assignments by the group's good-density mass Σ log pg, ties
// broken by enumeration order.
//
// Deliberately NOT log pg − log pb: with a handful of observations
// spread over 40 dimensions, the bad density's Laplace-smoothed tail
// assigns tiny pb to never-visited corners, so a pg/pb argmax over the
// FULL sub-grid chases unsupported extrapolations and stalls the
// search (measured on compile40: pg/pb composition loses to flat
// sampling on 8/10 seeds, pg-mass composition beats it on 10/10). The
// pg restriction mirrors what the flat sampling engine gets for free
// by drawing candidates from pg; pb still gets its say in the final
// full-joint polish ranking.
func (g *groupSub) enumerateTop(s *Surrogate, m int) {
	g.top = g.top[:0]
	g.topScores = g.topScores[:0]
	cards := make([]int, len(g.dims))
	for i, d := range g.dims {
		cards[i] = s.sp.Param(d).Cardinality()
	}
	idx := make([]int, len(g.dims))
	vals := make([]float64, len(g.dims))
	for {
		var score float64
		for i, d := range g.dims {
			vals[i] = float64(idx[i])
			score += s.good[d].logProb(vals[i])
		}
		g.push(vals, score, m)
		i := len(idx) - 1
		for i >= 0 {
			idx[i]++
			if idx[i] < cards[i] {
				break
			}
			idx[i] = 0
			i--
		}
		if i < 0 {
			return
		}
	}
}

// sampleTop draws sub-assignments from the group's good densities (the
// per-subspace analogue of the sampling engine's pg-draws; index-space
// rejection is unnecessary because a sub-assignment carries no
// constraint of its own), deduplicates, and keeps the m best by the
// group's good-density mass Σ log pg (see enumerateTop for why pb is
// excluded here).
func (g *groupSub) sampleTop(a *Acquisition, s *Surrogate, m int) {
	draws := a.CandidateSamples
	if draws <= 0 {
		draws = DefaultCandidateSamples
	}
	g.top = g.top[:0]
	g.topScores = g.topScores[:0]
	// The distinct draws are rows of one flat buffer, indexed by the
	// identity of the group's own (discrete) parameters.
	w := len(g.dims)
	seen := newConfigIndex(identity{continuous: make([]bool, w)}, draws)
	buf := make([]float64, 0, draws*w)
	row := func(i int) space.Config { return buf[i*w : (i+1)*w] }
	for i := 0; i < draws; i++ {
		n := len(buf) / w
		for _, d := range g.dims {
			buf = append(buf, s.good[d].sample(a.RNG))
		}
		vals := space.Config(buf[n*w:])
		if seen.insert(vals, seen.id.hash(vals), n, row) >= 0 {
			buf = buf[:n*w]
			continue
		}
		var score float64
		for vi, d := range g.dims {
			score += s.good[d].logProb(vals[vi])
		}
		g.push(vals, score, m)
	}
}

// push inserts a sub-assignment into the top-m list, keeping it sorted
// by (score desc, arrival order asc).
func (g *groupSub) push(vals []float64, score float64, m int) {
	pos := sort.Search(len(g.topScores), func(i int) bool { return g.topScores[i] < score })
	if pos >= m {
		return
	}
	v := append([]float64(nil), vals...)
	g.top = append(g.top, nil)
	copy(g.top[pos+1:], g.top[pos:])
	g.top[pos] = v
	g.topScores = append(g.topScores, 0)
	copy(g.topScores[pos+1:], g.topScores[pos:])
	g.topScores[pos] = score
	if len(g.top) > m {
		g.top = g.top[:m]
		g.topScores = g.topScores[:m]
	}
}

// apply writes the sub-assignment into the full configuration's group
// slots.
func (g *groupSub) apply(c space.Config, vals []float64) {
	for i, d := range g.dims {
		c[d] = vals[i]
	}
}

// groupedAcquirer composes per-group argmaxes of its model's flat fit
// and polishes across groups with the full-joint score.
type groupedAcquirer struct{ m *GroupedModel }

func (q groupedAcquirer) Propose(a *Acquisition, k int) ([]space.Config, error) {
	m := q.m
	if m.groups == nil {
		return nil, fmt.Errorf("core: grouped acquisition before the first fit")
	}
	if m.degenerate() {
		return samplingAcquirer{draws: DefaultCandidateSamples, surrogate: m.flat.current}.Propose(a, k)
	}
	s := m.flat.current()
	for _, g := range m.subs {
		if err := g.refresh(a, s); err != nil {
			return nil, err
		}
	}

	// Candidate set: the coordinate-wise argmax composition, the base
	// with each group's slot swapped for its runner-up sub-assignments,
	// and joint resamples of the per-group top lists — so the polish
	// ranking sees both local alternatives and cross-group mixes. Each
	// distinct composition is filtered as it arrives: structural
	// validity (a cross-group constraint can reject a composition), the
	// evaluated set, and leased work.
	draws := polishDraws
	if k > 1 {
		draws *= k
	}
	seen := newConfigSet(a.History.identity(), draws)
	var kept []space.Config
	add := func(c space.Config) {
		h := seen.id.hash(c)
		if seen.add(c, h) && a.Space.Valid(c) && !a.History.observedOrPending(c, h) {
			kept = append(kept, c)
		}
	}
	base := make(space.Config, a.Space.NumParams())
	for _, g := range m.subs {
		g.apply(base, g.top[0])
	}
	add(base.Clone())
	for _, g := range m.subs {
		for j := 1; j < len(g.top); j++ {
			c := base.Clone()
			g.apply(c, g.top[j])
			add(c)
		}
	}
	// Anchor a second composition family on the incumbent: the best
	// observed configuration with one group at a time swapped for the
	// surrogate's top sub-assignments. These are coordinate-ascent
	// moves on the true objective — they keep acquisition productive
	// when the surrogate mode is off on a few groups, because every
	// other group stays at values that measurably worked.
	if a.History.Len() > 0 {
		incumbent := a.History.Best().Config
		for _, g := range m.subs {
			for _, top := range g.top {
				c := incumbent.Clone()
				g.apply(c, top)
				add(c)
			}
			// Within-group single-coordinate flips of the incumbent —
			// the fine-grained moves a whole-group swap skips over.
			// Bounded by the group's total cardinality, not its grid.
			for _, d := range g.dims {
				card := a.Space.Param(d).Cardinality()
				for lvl := 0; lvl < card; lvl++ {
					if float64(lvl) == incumbent[d] {
						continue
					}
					c := incumbent.Clone()
					c[d] = float64(lvl)
					add(c)
				}
			}
		}
	}
	for i := 0; i < draws; i++ {
		c := make(space.Config, a.Space.NumParams())
		for _, g := range m.subs {
			g.apply(c, g.top[a.RNG.Intn(len(g.top))])
		}
		add(c)
	}

	// Cross-group polish: rank the composed candidates with the
	// full-joint score, so inter-group tradeoffs the per-group argmaxes
	// cannot see settle the final picks.
	return pickTop(a, s, kept, k)
}
