package gp

import (
	"fmt"

	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/dataset"
	"github.com/hpcautotune/hiperbot/internal/stats"
)

// Options configures the GP active-learning sampler.
type Options struct {
	// InitialSamples bootstraps the model (default 20, matching the
	// other methods).
	InitialSamples int
	// Kernel parameterizes the RBF covariance.
	Kernel Kernel
	// Seed drives the bootstrap.
	Seed uint64
	// Parallelism caps the worker goroutines used for the pooled
	// kernel/EI sweeps (0 = GOMAXPROCS). Results are bit-identical at
	// any setting.
	Parallelism int
}

// Select runs GP-EI active learning over a dataset: bootstrap with
// random configurations, then repeatedly fit the GP and evaluate the
// unevaluated configuration with the highest expected improvement.
//
// It is a thin adapter over the registered "gp" engine, as
// geist.Sampler is over "geist": the bootstrap draws happen here,
// then the shared core.Tuner loop refits the GP incrementally after
// every evaluation (DESIGN.md §9) and ranks the table's rows by EI.
func Select(tbl *dataset.Table, budget int, opts Options) (*core.History, error) {
	if opts.InitialSamples == 0 {
		opts.InitialSamples = 20
	}
	if opts.InitialSamples < 2 {
		return nil, fmt.Errorf("gp: need at least 2 initial samples")
	}
	if budget < opts.InitialSamples || budget > tbl.Len() {
		return nil, fmt.Errorf("gp: budget %d outside [%d,%d]", budget, opts.InitialSamples, tbl.Len())
	}
	r := stats.NewRNG(opts.Seed)
	h := core.NewHistory(tbl.Space)
	for _, idx := range r.SampleWithoutReplacement(tbl.Len(), opts.InitialSamples) {
		if err := h.Add(tbl.Config(idx), tbl.Value(idx)); err != nil {
			return nil, err
		}
	}
	tn, err := core.NewTuner(tbl.Space, tbl.Objective(), core.Options{
		Engine:         "gp",
		InitialSamples: opts.InitialSamples,
		Seed:           opts.Seed,
		Candidates:     tbl.Configs(),
		EngineConfig:   EngineConfig{Kernel: opts.Kernel, Parallelism: opts.Parallelism},
	})
	if err != nil {
		return nil, err
	}
	if err := tn.Resume(h); err != nil {
		return nil, err
	}
	if _, err := tn.Run(budget); err != nil {
		return nil, err
	}
	return tn.History(), nil
}
