package core

import (
	"math/bits"
	"slices"
	"sort"

	"github.com/hpcautotune/hiperbot/internal/space"
	"github.com/hpcautotune/hiperbot/internal/stats"
)

// The "random" engine is the paper's random-search baseline expressed
// as a Model/Acquirer pair: a model with nothing to fit and an
// acquirer that picks uniformly at random from the unevaluated pool
// (or the space, when no pool is available). Running it through the
// shared Tuner loop means baselines get leasing, journaling, and
// ask/tell for free.

func init() {
	RegisterEngine(EngineSpec{
		Name: "random",
		Pool: PoolPreferred,
		New: func(sp *space.Space, opts Options, pool *Pool) (Model, Acquirer, error) {
			return noFit{}, randomAcquirer{}, nil
		},
	})
}

// noFit is the random engine's model: it believes nothing, so fitting
// it does nothing.
type noFit struct{}

func (noFit) Fit(*History) error { return nil }

// randomAcquirer picks unevaluated candidates uniformly at random.
type randomAcquirer struct{}

func (randomAcquirer) Propose(a *Acquisition, k int) ([]space.Config, error) {
	return drawUniform(a, k), nil
}

// drawUniform draws up to k distinct configurations uniformly at
// random that are neither evaluated nor leased. It is the one uniform
// draw of the package: the initial phase (Tuner.Step, SelectInitial),
// the random engine and the pool-free acquirers' fallback all call
// it. With a pool it draws from the remaining set; without one it
// rejection-samples the space, giving up after 100 000 draws, or as
// soon as the draws hold every configuration of an unconstrained grid
// left unclaimed. A short or empty result means the space is (nearly)
// exhausted.
func drawUniform(a *Acquisition, k int) []space.Config {
	if a.Pool != nil {
		return drawRemaining(a.Pool, k, a.RNG)
	}
	if free := unclaimed(a.Space, a.History, k); free < k {
		k = free
	}
	const maxTries = 100000
	id := a.History.identity()
	out := newConfigSet(id, k)
	for try := 0; try < maxTries && len(out.rows) < k; try++ {
		c := a.Space.Sample(a.RNG)
		if h := id.hash(c); !a.History.observedOrPending(c, h) {
			out.add(c, h)
		}
	}
	return out.rows
}

// unclaimed counts the configurations of sp that are neither observed
// nor pending in h, a configuration both observed and pending counting
// once, when that count is below want and sp is an unconstrained
// discrete grid; otherwise, where rejection sampling has no count to
// stop at or the count cannot fall below want, it returns want. Only a
// nearly exhausted grid pays the walk over the pending overlay. The
// count is exact because every observation a Tuner admits passes
// Space.Check.
func unclaimed(sp *space.Space, h *History, want int) int {
	if !sp.AllDiscrete() || sp.Constrained() {
		return want
	}
	grid, ok := sp.GridSize64()
	if !ok || grid >= uint64(h.Len()+h.PendingLen()+want) {
		return want
	}
	free := int(grid) - h.Len()
	for _, c := range h.pend.rows {
		if !h.has(c, h.pend.id.hash(c)) {
			free--
		}
	}
	return max(free, 0)
}

// drawRemaining draws up to k distinct candidates uniformly at random
// from the pool's remaining set net of leases — drawUniform's pool
// path. It is a partial
// Fisher–Yates shuffle over the virtual list "remaining minus the
// leased positions", in O(k·log leases) rather than a copy of the
// list: a slot is read from the pool's remaining set unless the
// swap-removal has overwritten it, and only the overwritten slots are
// recorded. Its picks and RNG draws are those of swap-removal over a
// filtered copy.
func drawRemaining(p *Pool, k int, rng *stats.RNG) []space.Config {
	rem := p.Remaining()
	held := leasedPositions(p)
	n := len(rem) - len(held)
	if k > n {
		k = n
	}
	out := make([]space.Config, 0, k)
	moved := make(map[int]int, k) // overwritten slot → candidate index
	at := func(j int) int {
		if i, ok := moved[j]; ok {
			return i
		}
		// Slot j is remaining position j + t, where t counts the held
		// positions before it: the held[t] with held[t]-t <= j.
		return rem[j+sort.Search(len(held), func(t int) bool { return held[t]-t > j })]
	}
	for ; len(out) < k; n-- {
		pick := rng.Intn(n)
		out = append(out, p.Candidate(at(pick)))
		moved[pick] = at(n - 1)
	}
	return out
}

// leasedPositions returns the sorted positions in p.Remaining() of the
// leased candidates.
func leasedPositions(p *Pool) []int {
	if p.nleased == 0 {
		return nil
	}
	var held []int
	for w, word := range p.leased {
		for ; word != 0; word &= word - 1 {
			if at := p.pos[w<<6|bits.TrailingZeros64(word)]; at >= 0 {
				held = append(held, int(at))
			}
		}
	}
	slices.Sort(held)
	return held
}
