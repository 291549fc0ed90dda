package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/hpcautotune/hiperbot/internal/par"
	"github.com/hpcautotune/hiperbot/internal/space"
	"github.com/hpcautotune/hiperbot/internal/stats"
)

// This file defines the tuner's engine seam. The paper's framework is
// modular — a surrogate model behind an acquisition rule — and the
// repo compares several such pairs (TPE, GEIST's label propagation,
// random search). Rather than each backend owning its own selection
// loop, a backend is a Model (beliefs about configurations) plus an
// Acquirer (how to turn beliefs into the next candidates), registered
// under a name; one Tuner loop drives any of them, and servers select
// them per session by name.

// Model is a tuning backend's belief state: fitted from the history,
// able to score candidates (higher = more promising) and to sample
// promising configurations.
type Model interface {
	// Fit rebuilds the model from the full history. It is called
	// before every acquisition, so incremental models may no-op when
	// nothing changed.
	Fit(h *History) error
	// Score returns the acquisition score of one configuration
	// (higher is better). Only meaningful after a successful Fit.
	Score(c space.Config) float64
	// ScoreBatch scores every row of the columnar batch into dst
	// (len(dst) == b.Len()), the hot path for ranking acquisition.
	// Implementations must produce the same values as row-wise Score.
	ScoreBatch(b *space.Batch, dst []float64)
	// Sample draws a promising configuration, used by proposal-style
	// acquisition on unbounded or continuous spaces.
	Sample(r *stats.RNG) space.Config
	// Importance reports a per-parameter relevance score, or nil when
	// the model does not define one.
	Importance() []float64
}

// Acquisition carries everything an Acquirer may consult when
// proposing candidates: the fitted model, the history and the pool.
// Pool is nil for engines that run without a finite candidate set.
// Every acquirer skips leased configurations (pending-aware ask/tell)
// as it skips evaluated ones: loops over the pool test Pool.Leased,
// draws outside a pool test the history's pending overlay. Nothing an
// acquirer computes from it outlives the call; an acquirer may keep
// buffers, never results.
type Acquisition struct {
	Space            *space.Space
	Model            Model
	History          *History
	Pool             *Pool
	RNG              *stats.RNG
	Parallelism      int
	CandidateSamples int
}

// Acquirer proposes up to k not-yet-evaluated candidates from a
// fitted model. A short (or empty) result means acquisition found no
// more configurations outside the evaluated and leased set (for pool
// engines: the pool net of leases is exhausted); an error means
// acquisition itself failed.
type Acquirer interface {
	Propose(a *Acquisition, k int) ([]space.Config, error)
}

// Marginaler is implemented by models that expose per-parameter
// belief marginals for rendering (see RenderMarginals).
type Marginaler interface {
	Marginals() []MarginalReport
}

// serialScoreCutoff is the pool size below which ScoreAll skips the
// worker pool: the columnar TPE sweep costs a few ns per row, so
// fanning out goroutines for small pools costs more than it saves
// (measured in BenchmarkScoreBatch). Per-row results are bit-identical
// either way.
const serialScoreCutoff = 2048

// ScoreAll scores every row of b with m on up to workers goroutines,
// chunking the batch into column windows. Chunk boundaries are
// deterministic, so the result is independent of scheduling.
func ScoreAll(m Model, b *space.Batch, workers int) []float64 {
	dst := make([]float64, b.Len())
	ScoreAllInto(m, b, workers, dst)
	return dst
}

// ScoreAllInto is ScoreAll writing into a caller-provided buffer
// (len(dst) must equal b.Len()), the allocation-free variant the
// ranking acquirer rescores the pool with.
func ScoreAllInto(m Model, b *space.Batch, workers int, dst []float64) {
	if b.Len() <= serialScoreCutoff {
		m.ScoreBatch(b, dst)
		return
	}
	par.Chunks(b.Len(), workers, func(_, lo, hi int) {
		m.ScoreBatch(b.Slice(lo, hi), dst[lo:hi])
	})
}

// PoolPolicy declares an engine's relationship to a finite candidate
// pool.
type PoolPolicy int

const (
	// PoolUnused engines sample the space directly; the tuner builds
	// no pool even when Options.Candidates is set.
	PoolUnused PoolPolicy = iota
	// PoolPreferred engines use a pool when one is available
	// (explicit candidates, or a fully discrete space small enough to
	// enumerate) and fall back to space sampling otherwise.
	PoolPreferred
	// PoolRequired engines cannot run without a finite candidate set.
	PoolRequired
)

// EngineSpec describes one registered engine: a name, its pool
// policy, and a factory building the model/acquirer pair.
type EngineSpec struct {
	Name string
	Pool PoolPolicy
	// New builds the engine for one tuning session. pool is non-nil
	// exactly when the policy asked for one and the tuner could build
	// it, and the tuner keeps it for its whole life, so an engine may
	// bind state to it (gp's feature encoding, geist's graph); opts
	// carries the shared knobs (Surrogate hyperparameters, seeds) plus
	// the engine-specific Options.EngineConfig.
	New func(sp *space.Space, opts Options, pool *Pool) (Model, Acquirer, error)
}

var (
	engineMu sync.RWMutex
	engines  = map[string]EngineSpec{}
)

// RegisterEngine adds an engine to the registry, keyed by lower-cased
// name. It panics on empty or duplicate names: registration happens
// in package init functions, where a clash is a programming error.
func RegisterEngine(spec EngineSpec) {
	name := strings.ToLower(spec.Name)
	if name == "" {
		panic("core: RegisterEngine with empty name")
	}
	if spec.New == nil {
		panic(fmt.Sprintf("core: RegisterEngine(%q) with nil factory", name))
	}
	engineMu.Lock()
	defer engineMu.Unlock()
	if _, dup := engines[name]; dup {
		panic(fmt.Sprintf("core: engine %q registered twice", name))
	}
	spec.Name = name
	engines[name] = spec
}

// LookupEngine fetches a registered engine by (case-insensitive)
// name.
func LookupEngine(name string) (EngineSpec, bool) {
	engineMu.RLock()
	defer engineMu.RUnlock()
	spec, ok := engines[strings.ToLower(name)]
	return spec, ok
}

// EngineNames lists the registered engine names, sorted. Note that
// engines register from their own packages (e.g. "geist" lives in
// internal/geist), so the list depends on what the binary imports.
func EngineNames() []string {
	engineMu.RLock()
	defer engineMu.RUnlock()
	out := make([]string, 0, len(engines))
	for name := range engines {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
