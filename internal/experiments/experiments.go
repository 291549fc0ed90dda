// Package experiments contains one driver per table and figure of the
// paper's evaluation (§V-§VII). Each driver returns a structured
// result that cmd/experiments renders as ASCII tables/series and the
// root-level benchmarks re-run at reduced repetition counts.
//
// Checkpoints, budgets, repetition counts, and metric definitions all
// follow the paper:
//
//	Fig. 1  toy 1-D objective, densities + expected improvement
//	Fig. 2  Kripke exec:   checkpoints 32..192, 50 reps, ℓ = 5 %
//	Fig. 3  Kripke energy: checkpoints 39..439
//	Fig. 4  HYPRE:         checkpoints 41..441
//	Fig. 5  LULESH:        checkpoints 46..446
//	Fig. 6  OpenAtom:      checkpoints 39..439
//	Fig. 7  hyperparameter sensitivity (initial samples, threshold)
//	Tab. I  JS-divergence parameter importance (10 % vs all samples)
//	Fig. 8  transfer learning vs PerfNet, γ ∈ {5,10,15,20 %}
package experiments

import (
	"fmt"
	"sort"

	"github.com/hpcautotune/hiperbot/internal/apps"
	"github.com/hpcautotune/hiperbot/internal/apps/hypre"
	"github.com/hpcautotune/hiperbot/internal/apps/kripke"
	"github.com/hpcautotune/hiperbot/internal/apps/lulesh"
	"github.com/hpcautotune/hiperbot/internal/apps/openatom"
	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/geist"
	"github.com/hpcautotune/hiperbot/internal/harness"
)

// Config tunes experiment cost; the zero value reproduces the paper.
type Config struct {
	// Repetitions per method (default 50, the paper's count).
	Repetitions int
	// Seed offsets all per-repetition seeds.
	Seed uint64
	// RecallPercentile is ℓ of eq. 11 (default 0.05).
	RecallPercentile float64
	// Parallelism bounds concurrent repetitions (0 = GOMAXPROCS).
	// Results are independent of the setting: every repetition gets
	// its own seeded RNG stream, and aggregation always reduces in
	// repetition order.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.Repetitions == 0 {
		c.Repetitions = 50
	}
	if c.RecallPercentile == 0 {
		c.RecallPercentile = 0.05
	}
	return c
}

// SelectionResult is the data behind one of Figs. 2-6: the
// best-configuration and recall curves for every method, plus the
// exhaustive-best and expert reference lines.
type SelectionResult struct {
	Dataset        string
	Metric         string
	SpaceSize      int
	GoodSetSize    int
	ExhaustiveBest float64
	Expert         float64
	ExpertNote     string
	Curves         []*harness.Curve
}

// configSelection runs the Fig. 2-6 protocol on one application model.
func configSelection(model *apps.Model, checkpoints []int, cfg Config) (*SelectionResult, error) {
	cfg = cfg.withDefaults()
	tbl := model.Table()
	good := harness.PercentileGoodSet(tbl, cfg.RecallPercentile)
	spec := harness.CurveSpec{
		Table:       tbl,
		Checkpoints: checkpoints,
		Repetitions: cfg.Repetitions,
		Good:        good,
		BaseSeed:    cfg.Seed,
		Parallelism: cfg.Parallelism,
	}
	methods := []harness.Method{
		harness.Random(),
		harness.GEIST(geist.Options{}, false),
		harness.HiPerBOt(core.Options{}),
	}
	curves, err := harness.RunCurves(methods, spec)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", model.Name(), err)
	}
	_, _, best := tbl.Best()
	expertCfg, note := model.Expert()
	expertVal, ok := tbl.Lookup(expertCfg)
	if !ok {
		return nil, fmt.Errorf("experiments: %s: expert config missing", model.Name())
	}
	return &SelectionResult{
		Dataset:        model.Name(),
		Metric:         model.Metric(),
		SpaceSize:      tbl.Len(),
		GoodSetSize:    good.Size(),
		ExhaustiveBest: best,
		Expert:         expertVal,
		ExpertNote:     note,
		Curves:         curves,
	}, nil
}

// Fig2 reproduces the Kripke execution-time study (paper Fig. 2).
func Fig2(cfg Config) (*SelectionResult, error) {
	return configSelection(kripke.Exec(), []int{32, 64, 96, 128, 160, 192}, cfg)
}

// Fig3 reproduces the Kripke energy study (paper Fig. 3).
func Fig3(cfg Config) (*SelectionResult, error) {
	return configSelection(kripke.Energy(), []int{39, 139, 239, 339, 439}, cfg)
}

// Fig4 reproduces the HYPRE study (paper Fig. 4).
func Fig4(cfg Config) (*SelectionResult, error) {
	return configSelection(hypre.Selection(), []int{41, 141, 241, 341, 441}, cfg)
}

// Fig5 reproduces the LULESH study (paper Fig. 5).
func Fig5(cfg Config) (*SelectionResult, error) {
	return configSelection(lulesh.Flags(), []int{46, 146, 246, 346, 446}, cfg)
}

// Fig6 reproduces the OpenAtom study (paper Fig. 6).
func Fig6(cfg Config) (*SelectionResult, error) {
	return configSelection(openatom.Decomposition(), []int{39, 139, 239, 339, 439}, cfg)
}

// AllModels lists the five configuration-selection datasets in paper
// order; shared by Fig. 7 and Table I.
func AllModels() []*apps.Model {
	return []*apps.Model{
		kripke.Exec(),
		lulesh.Flags(),
		hypre.Selection(),
		openatom.Decomposition(),
		kripke.Energy(),
	}
}

// rankDescending returns parameter names with scores, sorted by
// descending score (ties by name for determinism).
func rankDescending(names []string, scores []float64) ([]string, []float64) {
	idx := make([]int, len(names))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return names[idx[a]] < names[idx[b]]
	})
	outN := make([]string, len(idx))
	outS := make([]float64, len(idx))
	for k, i := range idx {
		outN[k] = names[i]
		outS[k] = scores[i]
	}
	return outN, outS
}
