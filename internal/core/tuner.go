package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"

	"github.com/hpcautotune/hiperbot/internal/space"
	"github.com/hpcautotune/hiperbot/internal/stats"
)

// Objective evaluates a configuration's true performance by running
// the full application (paper: f(x)). It is assumed expensive.
type Objective func(space.Config) float64

// Options configures a Tuner. The zero value plus a Seed reproduces
// the paper's setup: 20 initial samples, α = 0.20, the Ranking engine
// on finite spaces and Proposal otherwise.
type Options struct {
	// InitialSamples seeds H_0 with uniformly random configurations
	// (paper §III-C step 1; 20 in the paper's experiments).
	InitialSamples int
	// Surrogate carries the density hyperparameters (α, smoothing,
	// bandwidth, prior).
	Surrogate SurrogateConfig
	// Engine names the registered engine driving selection (Ranking,
	// Proposal, "sampling", "random", "geist", ...; see
	// RegisterEngine). Empty picks Ranking, or the pool-free "sampling"
	// engine on a discrete grid past DefaultEnumerateLimit. Ranking on
	// a space with continuous parameters and no Candidates runs as
	// Proposal.
	Engine string
	// EngineConfig carries engine-specific configuration to the
	// engine's factory (e.g. geist.EngineConfig); nil uses the
	// engine's defaults.
	EngineConfig any
	// Candidates optionally fixes the candidate pool for pool-backed
	// engines. When nil, the space is enumerated (requires a fully
	// discrete space) — unless the grid exceeds DefaultEnumerateLimit,
	// in which case the large-space mode below takes over.
	Candidates []space.Config
	// PoolCap bounds the sampled candidate pool built for pool-backed
	// engines on spaces too large to enumerate (> DefaultEnumerateLimit
	// grid points): 0 means DefaultPoolCap, > 0 caps the pool at that
	// many candidates, and < 0 disables large-space mode entirely, so
	// asking for a pool-backed engine on an oversized space is a clean
	// error. Spaces small enough to enumerate are unaffected.
	PoolCap int
	// CandidateSamples is the number of good-density draws the
	// pool-free TPE acquirer scores per pick (Proposal, "sampling",
	// grouped's per-group draws, motpe without a pool); 0 keeps the
	// engine's own count: 100 for Proposal and motpe, and
	// DefaultCandidateSamples for the others. A negative count is a
	// construction error.
	CandidateSamples int
	// Groups partitions the parameter space for the "grouped" engine:
	// each inner slice names the parameters of one group (see
	// ParseGroups for the flag syntax). Parameters named nowhere become
	// singleton groups; unknown or repeated names are a construction
	// error. Nil lets the engine auto-propose groups from the fitted
	// surrogate's importance/interaction structure at the first
	// model-guided fit. Engines other than "grouped" ignore it.
	Groups [][]string
	// Liar names the constant-liar policy ("min", "mean", "max"; empty
	// = mean) assigning fantasy values to pending observations when the
	// ask path runs with outstanding leases (see LiarPolicy). It only
	// affects pending-aware batch asks; the serial no-pending path is
	// policy-independent.
	Liar string
	// VectorObjective, when non-nil, computes the canonical
	// (all-minimize) objective vector attached to every observation
	// (Observation.Objectives) for multi-objective engines such as
	// "motpe". The scalar Objective still supplies Value, which keeps
	// driving Best, stall detection, and scalar engines.
	VectorObjective func(space.Config) []float64
	// Seed drives all pseudo-randomness; runs are reproducible.
	Seed uint64
	// OnStep, when non-nil, observes every evaluation (including the
	// initial samples) in order.
	OnStep func(iteration int, obs Observation)
	// Parallelism bounds the workers used for candidate scoring;
	// 0 means GOMAXPROCS.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.InitialSamples == 0 {
		o.InitialSamples = 20
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	o.Surrogate = o.Surrogate.withDefaults()
	return o
}

// Tuner runs HiPerBOt's iterative loop (paper §III-C): seed the
// history with random samples, then repeatedly fit the engine's
// model, acquire the most promising candidates, evaluate them, and
// fold the observations back in. The model and acquisition rule are
// pluggable (see Model, Acquirer, RegisterEngine); the loop is not.
type Tuner struct {
	sp      *space.Space
	obj     Objective
	opts    Options
	rng     *stats.RNG
	history *History

	pool      *Pool // nil for pool-less engines
	sampled   bool  // pool is a capped sample of an oversized grid
	poolShort bool  // the sample hit its retry bound short of the cap
	engine    string
	model     Model
	acquirer  Acquirer
	iter      int

	acq Acquisition // reused per-acquisition view (no per-Ask alloc)
}

// NewTuner validates the options and prepares a tuner. The objective
// is not called yet; evaluation starts with Run or Step.
func NewTuner(sp *space.Space, obj Objective, opts Options) (*Tuner, error) {
	opts = opts.withDefaults()
	if obj == nil {
		return nil, fmt.Errorf("core: nil objective")
	}
	if opts.InitialSamples < 2 {
		return nil, fmt.Errorf("core: need at least 2 initial samples, got %d", opts.InitialSamples)
	}
	if opts.CandidateSamples < 0 {
		return nil, fmt.Errorf("core: candidate samples must be >= 0, got %d", opts.CandidateSamples)
	}
	if err := opts.Surrogate.validate(); err != nil {
		return nil, err
	}
	liar, err := ParseLiarPolicy(opts.Liar)
	if err != nil {
		return nil, err
	}
	name := strings.ToLower(opts.Engine)
	defaulted := name == ""
	if defaulted {
		name = Ranking
	}
	if name == Ranking && opts.Candidates == nil && !sp.AllDiscrete() {
		// Ranking needs a finite candidate set; fall back to Proposal.
		name = Proposal
	}
	// Large-space mode: a discrete grid past the enumerate limit is
	// never materialized. The default TPE choice becomes the pool-free
	// "sampling" engine; explicitly requested pool-backed engines get a
	// capped sampled pool below.
	largeGrid := opts.Candidates == nil && sp.AllDiscrete() && gridTooLarge(sp)
	if largeGrid && defaulted && name == Ranking && opts.PoolCap >= 0 {
		name = "sampling"
	}
	spec, ok := LookupEngine(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown engine %q (registered: %s)",
			name, strings.Join(EngineNames(), ", "))
	}
	t := &Tuner{
		sp:      sp,
		obj:     obj,
		opts:    opts,
		rng:     stats.NewRNG(opts.Seed),
		history: NewHistory(sp),
		engine:  name,
	}
	t.history.SetLiar(liar)
	buildPool := spec.Pool == PoolRequired ||
		(spec.Pool == PoolPreferred && (opts.Candidates != nil || (sp.AllDiscrete() && !largeGrid)))
	if buildPool {
		cands := opts.Candidates
		switch {
		case cands == nil && !sp.AllDiscrete():
			return nil, fmt.Errorf("core: engine %q needs a finite candidate set: set Options.Candidates or use a fully discrete space", name)
		case cands == nil && largeGrid:
			// The pool RNG draws happen before any initial sample, so a
			// journal replay that reconstructs the tuner reproduces the
			// exact pool and therefore the exact selection sequence.
			if opts.PoolCap < 0 {
				return nil, fmt.Errorf("core: engine %q needs a candidate pool but the grid has %s points (enumerate limit %d): raise Options.PoolCap to sample one, or pass Options.Candidates",
					name, gridSizeString(sp), DefaultEnumerateLimit)
			}
			t.pool, t.poolShort, err = sampledPool(sp, opts.PoolCap, t.rng)
			t.sampled = true
		case cands == nil:
			t.pool, err = newGridPool(sp)
		default:
			t.pool, err = NewPool(sp, cands)
		}
		if err != nil {
			return nil, err
		}
	}
	model, acquirer, err := spec.New(sp, opts, t.pool)
	if err != nil {
		return nil, err
	}
	t.model = model
	t.acquirer = acquirer
	return t, nil
}

// History exposes the observation history.
func (t *Tuner) History() *History { return t.history }

// Model returns the engine's model, e.g. for rendering marginals
// (Marginaler) or inspecting the fitted surrogate (*TPEModel).
func (t *Tuner) Model() Model { return t.model }

// EngineName reports which registered engine drives selection.
func (t *Tuner) EngineName() string { return t.engine }

// Importance fits the engine's model on the current history and
// returns its per-parameter importance scores. It returns nil scores
// (no error) for models that do not define importance, and an error
// when the history is empty or the fit fails. The fit is generation-
// cached, so calling this between evaluations costs nothing beyond
// the first call; the returned slice may be shared with the model's
// cache and must not be mutated. Importance reads only the exact fit
// of the observed history, so for the TPE models it builds no
// fantasized surrogate around pending work.
func (t *Tuner) Importance() ([]float64, error) {
	if t.history.Len() == 0 {
		return nil, fmt.Errorf("core: Importance before any evaluation")
	}
	fit := t.model.Fit
	if m, ok := t.model.(exactFitter); ok {
		fit = m.fitExact
	}
	if err := fit(t.history); err != nil {
		return nil, err
	}
	return t.model.Importance(), nil
}

// exactFitter is implemented by the models whose Fit adds a
// fantasized surrogate around pending work to an exact fit; fitExact
// runs only the exact fit.
type exactFitter interface {
	fitExact(h *History) error
}

// Evaluations returns the number of objective evaluations so far.
func (t *Tuner) Evaluations() int { return t.history.Len() }

// InitialSamples returns the size of the initial random-sampling
// phase (Options.InitialSamples after defaulting).
func (t *Tuner) InitialSamples() int { return t.opts.InitialSamples }

// Best returns the best observation so far; panics before any
// evaluation.
func (t *Tuner) Best() Observation { return t.history.Best() }

// acquisition assembles the per-call view handed to the Acquirer,
// reusing one Acquisition struct so the steady-state path allocates
// nothing.
func (t *Tuner) acquisition() *Acquisition {
	t.acq = Acquisition{
		Space:            t.sp,
		Model:            t.model,
		History:          t.history,
		Pool:             t.pool,
		RNG:              t.rng,
		Parallelism:      t.opts.Parallelism,
		CandidateSamples: t.opts.CandidateSamples,
	}
	return &t.acq
}

// errExhausted is Step's error when no configuration outside the
// evaluated set is left to pick.
var errExhausted = errors.New("no unevaluated configuration remains")

// Step performs exactly one objective evaluation: one of the initial
// random samples while H is smaller than InitialSamples, afterwards
// one model-guided selection. It returns the new observation.
func (t *Tuner) Step() (Observation, error) {
	var picks []space.Config
	if t.history.Len() < t.opts.InitialSamples {
		picks = drawUniform(t.acquisition(), 1)
	} else {
		if err := t.model.Fit(t.history); err != nil {
			return Observation{}, err
		}
		var err error
		if picks, err = t.acquirer.Propose(t.acquisition(), 1); err != nil {
			return Observation{}, err
		}
	}
	if len(picks) == 0 {
		return Observation{}, fmt.Errorf("core: %w", errExhausted)
	}
	c := picks[0]
	obs := Observation{Config: c, Value: t.obj(c)}
	if t.opts.VectorObjective != nil {
		obs.Objectives = t.opts.VectorObjective(c)
	}
	if err := t.history.AddObs(obs); err != nil {
		return Observation{}, err
	}
	t.markEvaluated(c)
	if t.opts.OnStep != nil {
		t.opts.OnStep(t.iter, obs)
	}
	t.iter++
	return obs, nil
}

// Run performs objective evaluations until the history holds budget
// observations (initial samples included) and returns the best.
func (t *Tuner) Run(budget int) (Observation, error) {
	if budget < t.opts.InitialSamples {
		return Observation{}, fmt.Errorf("core: budget %d smaller than %d initial samples",
			budget, t.opts.InitialSamples)
	}
	if t.pool != nil && budget > t.pool.Size() {
		return Observation{}, fmt.Errorf("core: budget %d exceeds the %d available configurations",
			budget, t.pool.Size())
	}
	for t.history.Len() < budget {
		if _, err := t.Step(); err != nil {
			return Observation{}, err
		}
	}
	return t.history.Best(), nil
}

// RunUntilStall evaluates until the best value has not improved by
// more than tol (relative) for stallLimit consecutive model-guided
// steps, or until maxBudget evaluations — the paper's alternative
// termination criterion ("if the score of the new samples do not
// improve as iterations progress").
func (t *Tuner) RunUntilStall(maxBudget, stallLimit int, tol float64) (Observation, error) {
	if stallLimit < 1 {
		return Observation{}, fmt.Errorf("core: stallLimit must be >= 1")
	}
	stall := 0
	bestSoFar := math.Inf(1)
	for t.history.Len() < maxBudget {
		if t.pool != nil && t.pool.RemainingCount() == 0 {
			break
		}
		obs, err := t.Step()
		if err != nil {
			return Observation{}, err
		}
		if t.history.Len() <= t.opts.InitialSamples {
			bestSoFar = t.history.Best().Value
			continue
		}
		if obs.Value < bestSoFar*(1-tol) {
			bestSoFar = obs.Value
			stall = 0
		} else {
			stall++
			if stall >= stallLimit {
				break
			}
		}
	}
	return t.history.Best(), nil
}

// SelectInitial returns up to k distinct configurations drawn
// uniformly at random, neither evaluated nor leased out, without
// evaluating them — the ask/tell counterpart of the initial sampling
// phase, for callers (e.g. AskTell) that hand candidates to external
// workers. A short result means fewer than k configurations are left
// net of leases.
func (t *Tuner) SelectInitial(k int) ([]space.Config, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: SelectInitial with k < 1")
	}
	return drawUniform(t.acquisition(), k), nil
}

// markEvaluated removes c from the candidate pool in O(1).
func (t *Tuner) markEvaluated(c space.Config) {
	if t.pool != nil {
		t.pool.MarkEvaluated(c)
	}
}

// SampledPoolSize reports the size of the sampled candidate pool, or
// 0 when the tuner runs on an enumerated pool or no pool at all — the
// observable guarantee that large-space memory is bounded by the cap.
func (t *Tuner) SampledPoolSize() int {
	if !t.sampled {
		return 0
	}
	return t.pool.Size()
}

// PoolExhaustedRetries reports 1 when the sampled pool's rejection
// sampling hit its retry bound and settled for a pool smaller than the
// cap — the observable signal (surfaced in SessionInfo and /metrics)
// that a constraint rejects most of the grid, instead of a silently
// short pool — and 0 otherwise, including when the tuner has no
// sampled pool. The pool is drawn once, in NewTuner.
func (t *Tuner) PoolExhaustedRetries() int64 {
	if t.poolShort {
		return 1
	}
	return 0
}
