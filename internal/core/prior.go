package core

import (
	"fmt"

	"github.com/hpcautotune/hiperbot/internal/space"
)

// Prior carries source-domain densities for transfer learning
// (paper §III-E). Building a surrogate with a Prior mixes the source
// densities into the target densities with weight w:
//
//	pg(xi) = w·pgSrc(xi) + pgTrgt(xi)      (eq. 9)
//	pb(xi) = w·pbSrc(xi) + pbTrgt(xi)      (eq. 10)
//
// so a target run can start making informed selections before it has
// gathered more than a handful of its own observations.
type Prior struct {
	sp        *space.Space
	good, bad []density
}

// NewPrior builds a transfer prior from a source-domain observation
// history: the source history is split at the same α-quantile and its
// good/bad densities become the prior. Typically the source history
// contains *all* source-domain data (paper §VII: "we use all the data
// from DSrc to act as the prior distribution").
func NewPrior(src *History, cfg SurrogateConfig) (*Prior, error) {
	// The prior's own construction must not recurse into another prior.
	cfg.Prior = nil
	s, err := BuildSurrogate(src, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: building prior: %w", err)
	}
	return &Prior{sp: src.Space(), good: s.good, bad: s.bad}, nil
}

// Space returns the source-domain space the prior was built over.
func (p *Prior) Space() *space.Space { return p.sp }
