package harness

import (
	"sync"

	"github.com/hpcautotune/hiperbot/internal/baselines"
	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/dataset"
	"github.com/hpcautotune/hiperbot/internal/geist"
	"github.com/hpcautotune/hiperbot/internal/gp"
)

// Method is a configuration-selection strategy evaluated by the
// harness: given a dataset, an evaluation budget, and a seed, it
// returns the ordered history of configurations it chose to evaluate.
type Method struct {
	Name string
	Run  func(tbl *dataset.Table, budget int, seed uint64) (*core.History, error)
}

// HiPerBOt wraps the core tuner as a harness method. opts are the
// tuner's options (the zero value is the paper's setup: 20 initial
// samples, α = 0.20, Ranking); each run sets only its seed and the
// candidates. The dataset's rows become the Ranking candidate pool, so
// the tuner only ever proposes measured configurations.
func HiPerBOt(opts core.Options) Method {
	name := "HiPerBOt"
	if opts.Surrogate.Prior != nil {
		name = "HiPerBOt+transfer"
	}
	return Method{
		Name: name,
		Run: func(tbl *dataset.Table, budget int, seed uint64) (*core.History, error) {
			run := opts
			run.Seed = seed
			run.Candidates = tbl.Configs()
			tn, err := core.NewTuner(tbl.Space, tbl.Objective(), run)
			if err != nil {
				return nil, err
			}
			if _, err := tn.Run(budget); err != nil {
				return nil, err
			}
			return tn.History(), nil
		},
	}
}

// Engine wraps any registered core engine, selected by name, as a
// harness method: HiPerBOt with only the engine set, named after it.
// The dataset's rows become the candidate pool, so pool-preferring and
// pool-requiring engines alike only ever choose measured
// configurations. Unknown names surface as NewTuner errors on the
// first Run. Note this drives every engine through the one shared
// tuner loop, so e.g. "geist" here uses the tuner's RNG stream, not
// the legacy geist.Sampler bootstrap stream (use GEIST for that).
func Engine(name string) Method {
	m := HiPerBOt(core.Options{Engine: name})
	m.Name = name
	return m
}

// Random wraps uniform random selection.
func Random() Method {
	return Method{
		Name: "Random",
		Run: func(tbl *dataset.Table, budget int, seed uint64) (*core.History, error) {
			return baselines.Random(tbl, budget, seed)
		},
	}
}

// GP wraps Gaussian-process expected-improvement active learning
// (Duplyakin et al., CLUSTER 2016) — the baseline the paper cites as
// already beaten by GEIST and therefore omits; included here so the
// transitive claim is checkable. The GP is refit after every
// evaluation.
func GP() Method {
	return Method{
		Name: "GP",
		Run: func(tbl *dataset.Table, budget int, seed uint64) (*core.History, error) {
			return gp.Select(tbl, budget, gp.Options{Seed: seed})
		},
	}
}

// graphCache shares the (expensive, dataset-determined) configuration
// graphs across the many repetitions of an experiment, keyed by table
// and weighting.
var graphCache sync.Map // graphKey → *geist.Graph

type graphKey struct {
	tbl      *dataset.Table
	weighted bool
}

// GEIST wraps the GEIST sampler as a harness method: each run is opts
// with the run's seed. weighted propagates over level-distance edge
// weights (ordinal parameters' adjacent levels propagate more
// strongly) and names the method GEIST-weighted.
func GEIST(opts geist.Options, weighted bool) Method {
	name := "GEIST"
	if weighted {
		name = "GEIST-weighted"
	}
	return Method{
		Name: name,
		Run: func(tbl *dataset.Table, budget int, seed uint64) (*core.History, error) {
			key := graphKey{tbl: tbl, weighted: weighted}
			var g *geist.Graph
			if cached, ok := graphCache.Load(key); ok {
				g = cached.(*geist.Graph)
			} else {
				if weighted {
					g = geist.BuildWeightedGraph(tbl)
				} else {
					g = geist.BuildGraph(tbl)
				}
				graphCache.Store(key, g)
			}
			run := opts
			run.Seed = seed
			s, err := geist.NewSampler(tbl, g, run)
			if err != nil {
				return nil, err
			}
			return s.Run(budget)
		},
	}
}
