package core

import (
	"fmt"

	"github.com/hpcautotune/hiperbot/internal/space"
)

// This file extends the paper's one-candidate-per-iteration loop
// (§III-A) with batch selection, for clusters that can evaluate
// several configurations concurrently. The paper's framework "will
// enable users to select good configurations ... reducing the user
// effort and resource overhead"; in practice allocations run many jobs
// at once, so the tuner must hand out k candidates per model update.
//
// How a batch is assembled is the engine's Acquirer's business: the
// ranking acquirer diversifies top-scored candidates by Hamming
// distance, the pool-free TPE acquirer (proposal, sampling) keeps the
// best distinct pg draws, the earliest drawn among equal scores, and
// GEIST mixes exploitation with uniform exploration. With k = 1 every
// acquirer reduces to its single-candidate selection.

// SelectBatch returns up to k distinct configurations to evaluate
// next, neither evaluated nor leased out (see AskTell), using the
// engine's freshly fitted model. It never evaluates the objective. The
// tuner must have completed its initial sampling phase; call Step (or
// Run) through the initial phase first. The fit sees the history's
// pending overlay (fantasized observations), so AskTell, which
// fantasizes each pick before asking for the next, gets an internally
// diverse batch; with no lease live the overlay is empty.
//
// The returned slice may be a buffer reused by the next
// acquisition on this tuner (the configurations themselves are
// stable): consume or copy it before calling SelectBatch, Step, or
// Ask again.
func (t *Tuner) SelectBatch(k int) ([]space.Config, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: SelectBatch with k < 1")
	}
	if t.history.Len() < t.opts.InitialSamples {
		return nil, fmt.Errorf("core: SelectBatch before initial sampling is complete (%d/%d)",
			t.history.Len(), t.opts.InitialSamples)
	}
	if err := t.model.Fit(t.history); err != nil {
		return nil, err
	}
	return t.acquirer.Propose(t.acquisition(), k)
}

// Observe folds an externally evaluated observation into the history,
// e.g. one produced from a SelectBatch candidate. Duplicates error.
func (t *Tuner) Observe(c space.Config, value float64) error {
	return t.ObserveObs(Observation{Config: c, Value: value})
}

// ObserveObs is Observe for a full observation, carrying raw metrics
// and a canonical objective vector alongside the scalar value — the
// fold-in path for multi-metric results reported over the wire. When
// Options.VectorObjective is set and the observation has no vector
// yet, one is derived, so external fold-ins match Step's behavior.
func (t *Tuner) ObserveObs(obs Observation) error {
	if obs.Objectives == nil && t.opts.VectorObjective != nil {
		obs.Objectives = t.opts.VectorObjective(obs.Config)
	}
	if err := t.history.AddObs(obs); err != nil {
		return err
	}
	t.markEvaluated(obs.Config)
	if t.opts.OnStep != nil {
		obs.Config = obs.Config.Clone()
		t.opts.OnStep(t.iter, obs)
	}
	t.iter++
	return nil
}

// RunBatched runs the tuner with batches of size k: after the initial
// samples, each model update hands out k candidates which are
// evaluated (sequentially here; the eval function may parallelize
// internally) and folded back in together.
func (t *Tuner) RunBatched(budget, k int) (Observation, error) {
	if k < 1 {
		return Observation{}, fmt.Errorf("core: RunBatched with k < 1")
	}
	if budget < t.opts.InitialSamples {
		return Observation{}, fmt.Errorf("core: budget %d below %d initial samples", budget, t.opts.InitialSamples)
	}
	for t.history.Len() < t.opts.InitialSamples {
		if _, err := t.Step(); err != nil {
			return Observation{}, err
		}
	}
	for t.history.Len() < budget {
		want := k
		if rem := budget - t.history.Len(); want > rem {
			want = rem
		}
		batch, err := t.SelectBatch(want)
		if err != nil {
			return Observation{}, err
		}
		if len(batch) == 0 {
			break // pool exhausted
		}
		for _, c := range batch {
			if err := t.Observe(c, t.obj(c)); err != nil {
				return Observation{}, err
			}
		}
	}
	return t.history.Best(), nil
}
