// Package baselines implements the non-model selection strategies the
// paper compares against (§V): uniform Random Selection, the
// Exhaustive Best oracle, and the per-application Expert choice.
package baselines

import (
	"fmt"

	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/dataset"
	"github.com/hpcautotune/hiperbot/internal/stats"
)

// Random selects budget configurations uniformly at random without
// replacement from the dataset and returns the evaluation history. It
// is a thin adapter over the registered "random" engine driven by the
// shared core.Tuner loop (a budget of 1 is drawn directly: the tuner
// loop needs at least 2 initial samples).
func Random(tbl *dataset.Table, budget int, seed uint64) (*core.History, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("baselines: budget must be positive, got %d", budget)
	}
	if budget > tbl.Len() {
		return nil, fmt.Errorf("baselines: budget %d exceeds dataset size %d", budget, tbl.Len())
	}
	if budget == 1 {
		r := stats.NewRNG(seed)
		h := core.NewHistory(tbl.Space)
		idx := r.Intn(tbl.Len())
		if err := h.Add(tbl.Config(idx), tbl.Value(idx)); err != nil {
			return nil, err
		}
		return h, nil
	}
	tn, err := core.NewTuner(tbl.Space, tbl.Objective(), core.Options{
		Engine:         "random",
		InitialSamples: 2,
		Seed:           seed,
		Candidates:     tbl.Configs(),
	})
	if err != nil {
		return nil, err
	}
	if _, err := tn.Run(budget); err != nil {
		return nil, err
	}
	return tn.History(), nil
}

// ExhaustiveBest returns the dataset's global optimum — the flat
// reference line in Figs. 2a-6a.
func ExhaustiveBest(tbl *dataset.Table) core.Observation {
	_, c, v := tbl.Best()
	return core.Observation{Config: c, Value: v}
}
