package experiments

import (
	"fmt"

	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/dataset"
	"github.com/hpcautotune/hiperbot/internal/harness"
	"github.com/hpcautotune/hiperbot/internal/par"
)

// SensitivityResult holds one panel of Fig. 7: for each application
// and each hyperparameter value, the ratio of HiPerBOt's selected best
// to the exhaustive best (1.0 = optimal selection).
type SensitivityResult struct {
	// Hyperparameter names the swept knob ("initial samples",
	// "percentile threshold").
	Hyperparameter string
	// Values is the x-axis.
	Values []float64
	// Apps names the lines.
	Apps []string
	// Ratio[app][value] = mean(best selected / exhaustive best).
	Ratio [][]float64
}

// sensitivityTotal fixes the total evaluation budget of the Fig. 7
// sweeps ("the total number of samples is fixed to 150").
const sensitivityTotal = 150

// Fig7Initial sweeps the initial-sample count 10..100 with the total
// budget fixed at 150 (paper Fig. 7a).
func Fig7Initial(cfg Config) (*SensitivityResult, error) {
	values := []float64{10, 20, 40, 60, 80, 100}
	return sensitivity(cfg, "initial samples", values, func(v float64) core.Options {
		return core.Options{InitialSamples: int(v)}
	})
}

// Fig7Threshold sweeps the good/bad quantile threshold 0.01..0.5 with
// 20 initial samples (paper Fig. 7b).
func Fig7Threshold(cfg Config) (*SensitivityResult, error) {
	values := []float64{0.01, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50}
	return sensitivity(cfg, "percentile threshold", values, func(v float64) core.Options {
		return core.Options{Surrogate: core.SurrogateConfig{Quantile: v}}
	})
}

func sensitivity(cfg Config, name string, values []float64, mk func(v float64) core.Options) (*SensitivityResult, error) {
	cfg = cfg.withDefaults()
	res := &SensitivityResult{Hyperparameter: name, Values: values}
	for _, model := range AllModels() {
		res.Apps = append(res.Apps, model.Name())
		tbl := model.Table()
		_, _, exhaustive := tbl.Best()
		row := make([]float64, len(values))
		for vi, v := range values {
			m := harness.HiPerBOt(mk(v))
			spec := harness.CurveSpec{
				Table:       tbl,
				Checkpoints: []int{sensitivityTotal},
				Repetitions: cfg.Repetitions,
				BaseSeed:    cfg.Seed + uint64(vi)*104729,
				Parallelism: cfg.Parallelism,
			}
			curve, err := harness.RunCurve(m, spec)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig7 %s %s=%v: %w", model.Name(), name, v, err)
			}
			row[vi] = curve.BestMean[0] / exhaustive
		}
		res.Ratio = append(res.Ratio, row)
	}
	return res, nil
}

// ImportanceEntry is one application's row of Table I.
type ImportanceEntry struct {
	App string
	// Params in the space's order.
	Params []string
	// Sampled: JS divergence from a surrogate built on 10 % of the
	// space, ranked. Full: from all samples ("actual ranking").
	SampledNames []string
	SampledJS    []float64
	FullNames    []string
	FullJS       []float64
}

// Table1 reproduces the parameter-importance ranking (paper §VI,
// Table I): JS divergence between each parameter's good and bad
// densities, computed once from a 10 % random sample and once from the
// entire dataset.
func Table1(cfg Config) ([]ImportanceEntry, error) {
	cfg = cfg.withDefaults()
	var out []ImportanceEntry
	for _, model := range AllModels() {
		tbl := model.Table()
		names := make([]string, tbl.Space.NumParams())
		for i := range names {
			names[i] = tbl.Space.Param(i).Name
		}
		entry := ImportanceEntry{App: model.Name(), Params: names}

		// 10% random sample: average the JS over repetitions so the
		// ranking is stable (a single draw is noisy, which the paper
		// itself notes for Kripke). Repetitions run concurrently with
		// per-rep seed streams; the sum reduces in rep order so the
		// result is bit-identical at any parallelism.
		sampleN := tbl.Len() / 10
		perRep := make([][]float64, cfg.Repetitions)
		err := par.Each(cfg.Repetitions, cfg.Parallelism, func(rep int) error {
			h, err := harness.Random().Run(tbl, sampleN, cfg.Seed+uint64(rep)*31)
			if err != nil {
				return err
			}
			s, err := core.BuildSurrogate(h, core.SurrogateConfig{})
			if err != nil {
				return err
			}
			perRep[rep] = s.Importance()
			return nil
		})
		if err != nil {
			return nil, err
		}
		sampled := make([]float64, len(names))
		for _, js := range perRep {
			for i, v := range js {
				sampled[i] += v
			}
		}
		for i := range sampled {
			sampled[i] /= float64(cfg.Repetitions)
		}
		entry.SampledNames, entry.SampledJS = rankDescending(names, sampled)

		// All samples: the actual ranking.
		full, err := fullImportance(tbl)
		if err != nil {
			return nil, err
		}
		entry.FullNames, entry.FullJS = rankDescending(names, full)
		out = append(out, entry)
	}
	return out, nil
}

// fullImportance builds the surrogate from the entire dataset.
func fullImportance(tbl *dataset.Table) ([]float64, error) {
	h := core.NewHistory(tbl.Space)
	for i := 0; i < tbl.Len(); i++ {
		if err := h.Add(tbl.Config(i), tbl.Value(i)); err != nil {
			return nil, err
		}
	}
	s, err := core.BuildSurrogate(h, core.SurrogateConfig{})
	if err != nil {
		return nil, err
	}
	return s.Importance(), nil
}
