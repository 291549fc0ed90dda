package core

import (
	"fmt"

	"github.com/hpcautotune/hiperbot/internal/space"
	"github.com/hpcautotune/hiperbot/internal/stats"
)

// The "random" engine is the paper's random-search baseline expressed
// as a Model/Acquirer pair: an indifferent model (every configuration
// scores 0) and an acquirer that picks uniformly at random from the
// unevaluated pool (or the space, when no pool is available). Running
// it through the shared Tuner loop means baselines get leasing,
// journaling, and ask/tell for free.

func init() {
	RegisterEngine(EngineSpec{
		Name: "random",
		Pool: PoolPreferred,
		New: func(sp *space.Space, opts Options, pool *Pool) (Model, Acquirer, error) {
			return uniformModel{sp: sp}, randomAcquirer{}, nil
		},
	})
}

// uniformModel believes nothing: all configurations score equally.
type uniformModel struct{ sp *space.Space }

// Fit is a no-op; the uniform model has no state.
func (uniformModel) Fit(*History) error { return nil }

// Observe is a no-op.
func (uniformModel) Observe(Observation) {}

// Score is constant: no configuration is preferred.
func (uniformModel) Score(space.Config) float64 { return 0 }

// ScoreBatch fills dst with the constant score.
func (uniformModel) ScoreBatch(b *space.Batch, dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
}

// Sample draws uniformly from the space.
func (m uniformModel) Sample(r *stats.RNG) space.Config { return m.sp.Sample(r) }

// Importance is undefined for the uniform model.
func (uniformModel) Importance() []float64 { return nil }

// randomAcquirer picks unevaluated candidates uniformly at random.
type randomAcquirer struct{}

func (randomAcquirer) Propose(a *Acquisition, k int) ([]space.Config, error) {
	if a.Pool != nil {
		return drawRemaining(a.Pool, a.Leased, k, a.RNG, a.Scratch), nil
	}
	const maxTries = 100000
	id := a.History.identity()
	out := newConfigSet(id, k)
	for try := 0; try < maxTries && len(out.rows) < k; try++ {
		c := a.Space.Sample(a.RNG)
		h := id.hash(c)
		if !a.History.has(c, h) && !a.Leased.has(c, h) {
			out.add(c, h)
		}
	}
	if len(out.rows) == 0 {
		return nil, fmt.Errorf("core: random acquisition could not draw an unevaluated configuration")
	}
	return out.rows, nil
}

// drawRemaining draws up to k distinct candidates uniformly at random
// from the pool's remaining set net of leases — the pool path of both
// the initial phase and the random engine. The working copy of the set
// lives in s.avail when s is non-nil, so repeated draws reuse it.
func drawRemaining(p *Pool, leased *LeaseFilter, k int, rng *stats.RNG, s *Scratch) []space.Config {
	var avail []int
	if s != nil {
		avail = s.avail[:0]
	}
	for _, idx := range p.Remaining() {
		if !leased.HasIndex(idx) {
			avail = append(avail, idx)
		}
	}
	if s != nil {
		s.avail = avail
	}
	if k > len(avail) {
		k = len(avail)
	}
	out := make([]space.Config, 0, k)
	for len(out) < k {
		pick := rng.Intn(len(avail))
		out = append(out, p.Candidate(avail[pick]))
		avail[pick] = avail[len(avail)-1]
		avail = avail[:len(avail)-1]
	}
	return out
}
