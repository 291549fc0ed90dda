package geist

import (
	"fmt"

	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/dataset"
	"github.com/hpcautotune/hiperbot/internal/stats"
)

// Options configures the GEIST sampler.
type Options struct {
	// InitialSamples bootstraps the search (default 20, matching the
	// budget given to HiPerBOt's initialization for fair comparison).
	InitialSamples int
	// BatchSize is the number of top-belief nodes evaluated per
	// propagation round (default 10).
	BatchSize int
	// Quantile sets the optimal/non-optimal labeling threshold on the
	// observed objective values (default 0.20).
	Quantile float64
	// CAMLP configures the label-propagation solver.
	CAMLP CAMLP
	// Seed drives the bootstrap sampling.
	Seed uint64
	// ExploreFrac mixes uniform-random picks into each batch to avoid
	// the propagation collapsing onto one region (default 0.2).
	ExploreFrac float64
}

func (o Options) withDefaults() Options {
	if o.InitialSamples == 0 {
		o.InitialSamples = 20
	}
	if o.BatchSize == 0 {
		o.BatchSize = 10
	}
	if o.Quantile == 0 {
		o.Quantile = 0.20
	}
	if o.CAMLP == (CAMLP{}) {
		o.CAMLP = DefaultCAMLP()
	}
	if o.ExploreFrac == 0 {
		o.ExploreFrac = 0.2
	}
	return o
}

// Sampler runs GEIST's iterative propagate→select→evaluate loop over a
// dataset. The graph can be shared between samplers (it depends only
// on the dataset), so repeated experiment runs build it once.
type Sampler struct {
	tbl  *dataset.Table
	g    *Graph
	opts Options
}

// NewSampler prepares a GEIST run over tbl using a prebuilt graph
// (pass nil to build one).
func NewSampler(tbl *dataset.Table, g *Graph, opts Options) (*Sampler, error) {
	opts = opts.withDefaults()
	if opts.InitialSamples < 2 {
		return nil, fmt.Errorf("geist: need at least 2 initial samples")
	}
	if opts.Quantile <= 0 || opts.Quantile >= 1 {
		return nil, fmt.Errorf("geist: quantile %v outside (0,1)", opts.Quantile)
	}
	if opts.BatchSize < 1 {
		return nil, fmt.Errorf("geist: batch size must be >= 1")
	}
	if opts.ExploreFrac < 0 || opts.ExploreFrac > 1 {
		return nil, fmt.Errorf("geist: explore fraction %v outside [0,1]", opts.ExploreFrac)
	}
	if g == nil {
		g = BuildGraph(tbl)
	}
	if g.NumNodes() != tbl.Len() {
		return nil, fmt.Errorf("geist: graph has %d nodes, dataset %d rows", g.NumNodes(), tbl.Len())
	}
	return &Sampler{tbl: tbl, g: g, opts: opts}, nil
}

// Run evaluates budget configurations and returns the history. It is
// a thin adapter over the registered "geist" engine: the bootstrap
// draws happen here (GEIST labels nodes "based on some initial
// threshold for the objective function", paper §V, so the threshold
// is fixed from the bootstrap — unlike HiPerBOt's adaptive
// α-quantile), then the shared core.Tuner loop drives CAMLP
// propagation rounds through the engine. The bootstrap RNG is handed
// to the engine for its exploration picks, preserving the original
// sampler's exact draw sequence for a fixed seed.
func (s *Sampler) Run(budget int) (*core.History, error) {
	if budget < s.opts.InitialSamples {
		return nil, fmt.Errorf("geist: budget %d below %d initial samples", budget, s.opts.InitialSamples)
	}
	if budget > s.tbl.Len() {
		return nil, fmt.Errorf("geist: budget %d exceeds dataset size %d", budget, s.tbl.Len())
	}
	r := stats.NewRNG(s.opts.Seed)

	// Bootstrap with uniform random configurations.
	h := core.NewHistory(s.tbl.Space)
	for _, idx := range r.SampleWithoutReplacement(s.tbl.Len(), s.opts.InitialSamples) {
		if err := h.Add(s.tbl.Config(idx), s.tbl.Value(idx)); err != nil {
			return nil, err
		}
	}

	tn, err := core.NewTuner(s.tbl.Space, s.tbl.Objective(), core.Options{
		Engine:         "geist",
		InitialSamples: s.opts.InitialSamples,
		Seed:           s.opts.Seed,
		Candidates:     s.tbl.Configs(),
		EngineConfig: EngineConfig{
			Graph:       s.g,
			CAMLP:       s.opts.CAMLP,
			Quantile:    s.opts.Quantile,
			ExploreFrac: s.opts.ExploreFrac,
			RNG:         r,
		},
	})
	if err != nil {
		return nil, err
	}
	if err := tn.Resume(h); err != nil {
		return nil, err
	}
	if _, err := tn.RunBatched(budget, s.opts.BatchSize); err != nil {
		return nil, err
	}
	return tn.History(), nil
}
