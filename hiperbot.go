// Package hiperbot is a Bayesian-optimization autotuner for HPC
// application, runtime, and compiler parameters — a from-scratch Go
// implementation of HiPerBOt ("Auto-tuning Parameter Choices in HPC
// Applications using Bayesian Optimization", Menon, Bhatele, Gamblin,
// IPDPS 2020).
//
// Given a configuration space (compiler flags, thread counts, solver
// choices, power caps, ...) and an expensive objective — running your
// application — HiPerBOt selects which configurations to evaluate
// next by modeling two densities over the history: pg(x) for
// configurations that performed well and pb(x) for the rest, and
// proposing the candidate maximizing the expected-improvement ratio
// pg(x)/pb(x).
//
// # Quickstart
//
//	sp := hiperbot.NewSpace(
//	    hiperbot.Discrete("layout", "rowmajor", "colmajor", "tiled"),
//	    hiperbot.DiscreteInts("threads", 1, 2, 4, 8, 16),
//	    hiperbot.Continuous("blockfrac", 0.1, 0.9),
//	)
//	tuner, err := hiperbot.NewTuner(sp, func(c hiperbot.Config) float64 {
//	    return runMyApp(c) // seconds; lower is better
//	}, hiperbot.Options{Seed: 1})
//	best, err := tuner.Run(100) // 100 evaluations total
//
// # Transfer learning
//
// Observations from a cheap source domain (small node count, small
// problem) can prime the tuner for an expensive target domain
// (paper §III-E):
//
//	prior, err := hiperbot.NewPrior(srcHistory, hiperbot.SurrogateConfig{})
//	tuner, err := hiperbot.NewTuner(sp, target, hiperbot.Options{
//	    Surrogate: hiperbot.SurrogateConfig{Prior: prior, PriorWeight: 1},
//	})
//
// # Parameter importance
//
// After (or during) tuning, the surrogate ranks parameters by the
// Jensen-Shannon divergence between their good and bad densities
// (paper §VI): see Tuner.Surrogate and Surrogate.Importance.
package hiperbot

import (
	"fmt"
	"io"
	"sort"

	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/dataset"
	"github.com/hpcautotune/hiperbot/internal/space"
)

// Re-exported configuration-space types. A Config assigns a value to
// every parameter positionally: the level index for discrete
// parameters, the real value for continuous ones.
type (
	// Config is one point in a configuration space.
	Config = space.Config
	// Param describes a single tunable parameter.
	Param = space.Param
	// Space is an ordered set of parameters plus validity constraints.
	Space = space.Space
)

// Re-exported tuner types.
type (
	// Objective evaluates one configuration; lower is better.
	Objective = core.Objective
	// Observation pairs a configuration with its measured value.
	Observation = core.Observation
	// Options configures a Tuner; the zero value reproduces the
	// paper's setup (20 initial samples, α = 0.20, the Ranking engine).
	Options = core.Options
	// SurrogateConfig holds the density-model hyperparameters.
	SurrogateConfig = core.SurrogateConfig
	// Tuner runs the iterative Bayesian-optimization loop.
	Tuner = core.Tuner
	// History is the ordered record of evaluated configurations.
	History = core.History
	// Surrogate is the pg/pb density model built from a History.
	Surrogate = core.Surrogate
	// Prior carries source-domain densities for transfer learning.
	Prior = core.Prior
)

// The paper's two selection rules (§III-D), as engine names for
// Options.Engine: Options{Engine: hiperbot.Proposal}.
const (
	// Ranking scores every not-yet-evaluated candidate exhaustively —
	// the right choice for finite, discrete HPC parameter spaces.
	Ranking = core.Ranking
	// Proposal draws candidates from the good density and keeps the
	// best — required for continuous parameters. It is the pool-free
	// TPE acquirer at 100 draws per pick (Options.CandidateSamples
	// changes the count).
	Proposal = core.Proposal
)

// NewSpace builds a configuration space from parameters.
func NewSpace(params ...Param) *Space { return space.New(params...) }

// Discrete declares a categorical parameter with named levels.
func Discrete(name string, levels ...string) Param { return space.Discrete(name, levels...) }

// DiscreteInts declares an ordinal parameter with integer levels
// (thread counts, tile sizes, ...).
func DiscreteInts(name string, values ...int) Param { return space.DiscreteInts(name, values...) }

// DiscreteFloats declares an ordinal parameter with float levels
// (power caps, ratios, ...).
func DiscreteFloats(name string, values ...float64) Param {
	return space.DiscreteFloats(name, values...)
}

// Continuous declares a real-valued parameter on [lo, hi].
func Continuous(name string, lo, hi float64) Param { return space.Continuous(name, lo, hi) }

// NewTuner prepares a tuning session. No evaluation happens until Run
// or Step is called.
func NewTuner(sp *Space, obj Objective, opts Options) (*Tuner, error) {
	return core.NewTuner(sp, obj, opts)
}

// NewHistory creates an empty observation history over sp, e.g. for
// assembling source-domain data for NewPrior.
func NewHistory(sp *Space) *History { return core.NewHistory(sp) }

// NewPrior builds a transfer-learning prior from source-domain
// observations (paper eqs. 9-10).
func NewPrior(src *History, cfg SurrogateConfig) (*Prior, error) {
	return core.NewPrior(src, cfg)
}

// BuildSurrogate fits the pg/pb density model to a history — exposed
// for offline analysis such as parameter-importance ranking on
// existing measurement data.
func BuildSurrogate(h *History, cfg SurrogateConfig) (*Surrogate, error) {
	return core.BuildSurrogate(h, cfg)
}

// MinimizeBatched is Minimize with batch-parallel selection: after the
// initial samples, the tuner hands out batchSize candidates per model
// update — the right shape when several application runs can execute
// concurrently. See Tuner.SelectBatch/Observe for the asynchronous
// variant where the caller controls the evaluations.
func MinimizeBatched(sp *Space, obj Objective, budget, batchSize int, seed uint64) (Observation, error) {
	t, err := NewTuner(sp, obj, Options{Seed: seed})
	if err != nil {
		return Observation{}, err
	}
	return t.RunBatched(budget, batchSize)
}

// Minimize is the one-call API: tune sp's parameters against obj with
// the given total evaluation budget and return the best observation.
func Minimize(sp *Space, obj Objective, budget int, seed uint64) (Observation, error) {
	t, err := NewTuner(sp, obj, Options{Seed: seed})
	if err != nil {
		return Observation{}, err
	}
	return t.Run(budget)
}

// Importance ranks the parameters of a history's space by the
// Jensen-Shannon divergence between their good and bad densities
// (paper §VI). It returns parallel slices of names and scores sorted
// by descending importance.
func Importance(h *History, cfg SurrogateConfig) (names []string, scores []float64, err error) {
	s, err := core.BuildSurrogate(h, cfg)
	if err != nil {
		return nil, nil, err
	}
	raw := s.Importance()
	sp := h.Space()
	// Stable sort over an index permutation: ties keep parameter
	// declaration order, so the ranking is deterministic.
	order := make([]int, len(raw))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return raw[order[a]] > raw[order[b]] })
	names = make([]string, len(order))
	scores = make([]float64, len(order))
	for rank, i := range order {
		names[rank] = sp.Param(i).Name
		scores[rank] = raw[i]
	}
	return names, scores, nil
}

// Recorder streams one JSON line per evaluation (iteration, config,
// value, best-so-far) for live monitoring and post-processing; wire
// its OnStep method into Options.OnStep.
type Recorder = core.Recorder

// RecorderEvent is the JSONL schema written by a Recorder.
type RecorderEvent = core.RecorderEvent

// NewRecorder creates a session recorder writing JSON lines to w.
func NewRecorder(w io.Writer, sp *Space) *Recorder { return core.NewRecorder(w, sp) }

// ReadEvents parses a JSONL stream written by a Recorder.
func ReadEvents(r io.Reader) ([]RecorderEvent, error) { return core.ReadEvents(r) }

// LoadHistory reads a checkpointed history (written with
// History.WriteCSV) so a tuning campaign can resume via Tuner.Resume
// without repeating evaluations.
func LoadHistory(sp *Space, r io.Reader) (*History, error) {
	return core.LoadHistoryCSV(sp, r)
}

// LoadSpace reconstructs a Space from the JSON written by
// Space.MarshalJSON.
//
// Constraint predicates are code, not data: they are NOT serialized,
// so the returned Space is always unconstrained even when the
// original was built with WithConstraint. Callers that need the
// constraint must re-impose it with WithConstraint after loading;
// otherwise the tuner may propose configurations the real application
// cannot run. The hiperbotd server makes this limitation explicit by
// rejecting observed configurations that fail validity checks with a
// 400 response (and documents that embedders with constrained spaces
// should create sessions programmatically, not over the wire).
func LoadSpace(data []byte) (*Space, error) {
	return space.SpaceFromJSON(data)
}

// Dataset is a pre-collected (configuration, metric) table that can be
// tuned against as a black-box objective — the workflow of the paper's
// evaluation, where each application is a published measurement table.
type Dataset = dataset.Table

// LoadDataset parses a CSV of measurements: a header of parameter
// names plus one metric column, then one row per configuration (level
// labels for discrete parameters).
func LoadDataset(name string, sp *Space, r io.Reader) (*Dataset, error) {
	return dataset.ReadCSV(name, sp, r)
}

// NewDataset assembles a dataset from parallel slices.
func NewDataset(name, metric string, sp *Space, configs []Config, values []float64) (*Dataset, error) {
	return dataset.New(name, metric, sp, configs, values)
}

// TuneDataset runs the tuner against a dataset's rows (only measured
// configurations are ever proposed) and returns the full history.
func TuneDataset(tbl *Dataset, budget int, opts Options) (*History, error) {
	if tbl == nil {
		return nil, fmt.Errorf("hiperbot: nil dataset")
	}
	opts.Candidates = tbl.Configs()
	t, err := NewTuner(tbl.Space, tbl.Objective(), opts)
	if err != nil {
		return nil, err
	}
	if _, err := t.Run(budget); err != nil {
		return nil, err
	}
	return t.History(), nil
}
