package experiments

import (
	"fmt"

	"github.com/hpcautotune/hiperbot/internal/apps/kripke"
	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/geist"
	"github.com/hpcautotune/hiperbot/internal/harness"
	"github.com/hpcautotune/hiperbot/internal/stats"
)

// Ablations of the design choices DESIGN.md calls out, beyond what the
// paper itself evaluates. Each returns rows of (variant, metric value)
// so cmd/experiments can print them as a table.

// AblationRow is one variant's outcome.
type AblationRow struct {
	Variant string
	Metric  string
	Value   float64
}

// AblationSelection compares the Ranking and Proposal strategies
// (§III-D) on Kripke exec at the paper's 96-sample budget.
func AblationSelection(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	tbl := kripke.Exec().Table()
	_, _, exhaustive := tbl.Best()
	var rows []AblationRow
	for _, engine := range []string{core.Ranking, core.Proposal} {
		var sum float64
		for rep := 0; rep < cfg.Repetitions; rep++ {
			m := harness.HiPerBOt(core.Options{Engine: engine})
			h, err := m.Run(tbl, 96, cfg.Seed+uint64(rep)*101)
			if err != nil {
				return nil, err
			}
			sum += h.Best().Value
		}
		rows = append(rows, AblationRow{
			Variant: engine,
			Metric:  "mean best@96 / exhaustive",
			Value:   sum / float64(cfg.Repetitions) / exhaustive,
		})
	}
	return rows, nil
}

// AblationThreshold sweeps the α-quantile on LULESH at budget 150
// (mirrors Fig. 7b but reports the exact values).
func AblationThreshold(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	tbl := AllModels()[1].Table() // lulesh
	_, _, exhaustive := tbl.Best()
	var rows []AblationRow
	for _, alpha := range []float64{0.05, 0.10, 0.20, 0.35, 0.50} {
		var sum float64
		for rep := 0; rep < cfg.Repetitions; rep++ {
			m := harness.HiPerBOt(core.Options{Surrogate: core.SurrogateConfig{Quantile: alpha}})
			h, err := m.Run(tbl, sensitivityTotal, cfg.Seed+uint64(rep)*103)
			if err != nil {
				return nil, err
			}
			sum += h.Best().Value
		}
		rows = append(rows, AblationRow{
			Variant: fmt.Sprintf("alpha=%.2f", alpha),
			Metric:  "mean best@150 / exhaustive",
			Value:   sum / float64(cfg.Repetitions) / exhaustive,
		})
	}
	return rows, nil
}

// AblationTransferWeight sweeps the prior weight w of eqs. 9-10 on the
// Kripke transfer pair, reporting recall@10%.
func AblationTransferWeight(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	reps := cfg.Repetitions
	if reps > 5 {
		reps = 5
	}
	src := kripke.TransferSource().Table()
	tgt := kripke.TransferTarget().Table()
	srcHist := core.NewHistory(src.Space)
	for i := 0; i < src.Len(); i++ {
		if err := srcHist.Add(src.Config(i), src.Value(i)); err != nil {
			return nil, err
		}
	}
	prior, err := core.NewPrior(srcHist, core.SurrogateConfig{})
	if err != nil {
		return nil, err
	}
	good := harness.ToleranceGoodSet(tgt, 0.10)
	budget := tgt.Len()/100 + 100
	var rows []AblationRow
	for _, w := range []float64{0, 0.25, 1, 4, 16} {
		var sum float64
		for rep := 0; rep < reps; rep++ {
			opts := core.Options{}
			if w > 0 {
				opts.Surrogate.Prior = prior
				opts.Surrogate.PriorWeight = w
			}
			m := harness.HiPerBOt(opts)
			h, err := m.Run(tgt, budget, cfg.Seed+uint64(rep)*107)
			if err != nil {
				return nil, err
			}
			sum += good.Recall(tgt, h, h.Len())
		}
		rows = append(rows, AblationRow{
			Variant: fmt.Sprintf("w=%.2g", w),
			Metric:  "recall@10%",
			Value:   sum / float64(reps),
		})
	}
	return rows, nil
}

// AblationFactorizedVsJoint quantifies §III-B's infeasibility argument:
// precision@50 of each surrogate's ranking after 100 random
// observations of Kripke exec.
func AblationFactorizedVsJoint(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	tbl := kripke.Exec().Table()
	good := harness.PercentileGoodSet(tbl, 0.05)

	precision := func(score func(i int) float64) float64 {
		type ranked struct {
			idx int
			s   float64
		}
		rows := make([]ranked, tbl.Len())
		for i := range rows {
			rows[i] = ranked{idx: i, s: score(i)}
		}
		for k := 0; k < 50; k++ {
			best := k
			for j := k + 1; j < len(rows); j++ {
				if rows[j].s > rows[best].s {
					best = j
				}
			}
			rows[k], rows[best] = rows[best], rows[k]
		}
		hits := 0
		for k := 0; k < 50; k++ {
			if good.Contains(rows[k].idx) {
				hits++
			}
		}
		return float64(hits) / 50
	}

	var factSum, jointSum float64
	for rep := 0; rep < cfg.Repetitions; rep++ {
		h := core.NewHistory(tbl.Space)
		r := stats.NewRNG(cfg.Seed + uint64(rep)*109)
		for _, idx := range r.SampleWithoutReplacement(tbl.Len(), 100) {
			if err := h.Add(tbl.Config(idx), tbl.Value(idx)); err != nil {
				return nil, err
			}
		}
		fact, err := core.BuildSurrogate(h, core.SurrogateConfig{})
		if err != nil {
			return nil, err
		}
		joint, err := core.BuildJointSurrogate(h, core.SurrogateConfig{})
		if err != nil {
			return nil, err
		}
		factSum += precision(func(i int) float64 { return fact.Score(tbl.Config(i)) })
		jointSum += precision(func(i int) float64 { return joint.Score(tbl.Config(i)) })
	}
	n := float64(cfg.Repetitions)
	return []AblationRow{
		{Variant: "factorized (eqs. 7-8)", Metric: "precision@50", Value: factSum / n},
		{Variant: "full joint histogram", Metric: "precision@50", Value: jointSum / n},
	}, nil
}

// AblationBatchSize measures diversity-aware batch selection at
// k ∈ {1, 4, 16} on Kripke exec: mean best after 96 evaluations.
func AblationBatchSize(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	tbl := kripke.Exec().Table()
	_, _, exhaustive := tbl.Best()
	var rows []AblationRow
	for _, k := range []int{1, 4, 16} {
		var sum float64
		for rep := 0; rep < cfg.Repetitions; rep++ {
			tn, err := core.NewTuner(tbl.Space, tbl.Objective(), core.Options{
				Seed:       cfg.Seed + uint64(rep)*113,
				Candidates: tbl.Configs(),
			})
			if err != nil {
				return nil, err
			}
			best, err := tn.RunBatched(96, k)
			if err != nil {
				return nil, err
			}
			sum += best.Value
		}
		rows = append(rows, AblationRow{
			Variant: fmt.Sprintf("batch=%d", k),
			Metric:  "mean best@96 / exhaustive",
			Value:   sum / float64(cfg.Repetitions) / exhaustive,
		})
	}
	return rows, nil
}

// AblationGEISTGraph compares GEIST on unweighted vs level-distance-
// weighted configuration graphs (Kripke exec, recall@192).
func AblationGEISTGraph(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	tbl := kripke.Exec().Table()
	good := harness.PercentileGoodSet(tbl, 0.05)
	var rows []AblationRow
	for _, weighted := range []bool{false, true} {
		m := harness.GEIST(geist.Options{}, weighted)
		var sum float64
		for rep := 0; rep < cfg.Repetitions; rep++ {
			h, err := m.Run(tbl, 192, cfg.Seed+uint64(rep)*127)
			if err != nil {
				return nil, err
			}
			sum += good.Recall(tbl, h, h.Len())
		}
		rows = append(rows, AblationRow{
			Variant: m.Name,
			Metric:  "recall@192",
			Value:   sum / float64(cfg.Repetitions),
		})
	}
	return rows, nil
}
