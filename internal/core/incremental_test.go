package core_test

// Tests pinning the fit-incremental TPE path: TPEModel.Fit maintains
// the surrogate's sufficient statistics across an append-only history
// and must be bit-identical to a cold BuildSurrogate after every
// tell, whatever order observations arrive in and however many
// arrive between fits.

import (
	"math"
	"testing"

	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/space"
	"github.com/hpcautotune/hiperbot/internal/stats"
)

// mixedSpace returns a space with both discrete and continuous
// parameters so the test exercises categorical counts and KDE point
// gathering alike.
func mixedSpace() *space.Space {
	return space.New(
		space.DiscreteInts("threads", 1, 2, 4, 8),
		space.Discrete("layout", "aos", "soa", "hybrid"),
		space.Continuous("alpha", 0, 1),
		space.DiscreteInts("tile", 8, 16, 32, 64, 128),
		space.Continuous("beta", -2, 2),
	)
}

// TestIncrementalFitMatchesCold tells observations one at a time in
// randomized orders, refitting incrementally after every tell (and,
// in a second pass, only every third tell so multi-observation
// fold-ins are exercised) and compares threshold, partition sizes,
// and candidate scores bitwise against a cold rebuild of the same
// history.
func TestIncrementalFitMatchesCold(t *testing.T) {
	sp := mixedSpace()
	const nObs = 60
	for _, fitEvery := range []int{1, 3} {
		for trial := 0; trial < 5; trial++ {
			rng := stats.NewRNG(uint64(1000*fitEvery + trial))
			// A deterministic pseudo-objective with ties (Intn(8)) so
			// the α-quantile threshold moves and membership flips occur.
			configs := make([]space.Config, nObs)
			values := make([]float64, nObs)
			for i := range configs {
				configs[i] = sp.Sample(rng)
				for sliceContains(configs[:i], sp, configs[i]) {
					configs[i] = sp.Sample(rng)
				}
				values[i] = float64(rng.Intn(8)) + configs[i][2]
			}

			model := &core.TPEModel{}
			h := core.NewHistory(sp)
			probes := make([]space.Config, 32)
			for i := range probes {
				probes[i] = sp.Sample(rng)
			}
			for i := range configs {
				h.MustAdd(configs[i], values[i])
				if (i+1)%fitEvery != 0 && i != len(configs)-1 {
					continue
				}
				if err := model.Fit(h); err != nil {
					t.Fatalf("incremental fit at n=%d: %v", i+1, err)
				}
				cold, err := core.BuildSurrogate(h, core.SurrogateConfig{})
				if err != nil {
					t.Fatalf("cold build at n=%d: %v", i+1, err)
				}
				inc := model.Surrogate()
				if inc.Threshold() != cold.Threshold() {
					t.Fatalf("n=%d: threshold %v (incremental) != %v (cold)",
						i+1, inc.Threshold(), cold.Threshold())
				}
				if inc.GoodCount() != cold.GoodCount() || inc.BadCount() != cold.BadCount() {
					t.Fatalf("n=%d: partition %d/%d (incremental) != %d/%d (cold)",
						i+1, inc.GoodCount(), inc.BadCount(), cold.GoodCount(), cold.BadCount())
				}
				for _, c := range probes {
					got, want := inc.Score(c), cold.Score(c)
					// NaN scores (KDE underflow on both densities) count
					// as equal; compare bit patterns, not IEEE equality.
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("n=%d: score(%s) = %v (incremental) != %v (cold)",
							i+1, sp.Describe(c), got, want)
					}
				}
			}
		}
	}
}

func sliceContains(cs []space.Config, sp *space.Space, c space.Config) bool {
	for _, x := range cs {
		if sp.Key(x) == sp.Key(c) {
			return true
		}
	}
	return false
}

// TestFitGenerationCache verifies Fit is a true no-op when the
// history generation is unchanged: the model keeps serving the very
// same fitted surrogate.
func TestFitGenerationCache(t *testing.T) {
	sp := mixedSpace()
	rng := stats.NewRNG(7)
	h := core.NewHistory(sp)
	for i := 0; i < 10; i++ {
		c := sp.Sample(rng)
		for h.Contains(c) {
			c = sp.Sample(rng)
		}
		h.MustAdd(c, rng.Float64())
	}
	model := &core.TPEModel{}
	if err := model.Fit(h); err != nil {
		t.Fatal(err)
	}
	first := model.Surrogate()
	for i := 0; i < 3; i++ {
		if err := model.Fit(h); err != nil {
			t.Fatal(err)
		}
		if model.Surrogate() != first {
			t.Fatal("Fit with unchanged generation rebuilt the surrogate")
		}
	}
	c := sp.Sample(rng)
	for h.Contains(c) {
		c = sp.Sample(rng)
	}
	h.MustAdd(c, rng.Float64())
	if err := model.Fit(h); err != nil {
		t.Fatal(err)
	}
	if model.Surrogate() == first {
		t.Fatal("Fit after a new observation served the stale surrogate")
	}
}

// TestHistoryGeneration pins the generation counter's contract: it
// changes exactly when an observation is added.
func TestHistoryGeneration(t *testing.T) {
	sp := mixedSpace()
	h := core.NewHistory(sp)
	if h.Generation() != 0 {
		t.Fatalf("fresh history has generation %d", h.Generation())
	}
	rng := stats.NewRNG(11)
	c := sp.Sample(rng)
	h.MustAdd(c, 1)
	g1 := h.Generation()
	if g1 == 0 {
		t.Fatal("Add did not change the generation")
	}
	if err := h.Add(c, 2); err == nil {
		t.Fatal("duplicate Add succeeded")
	}
	if h.Generation() != g1 {
		t.Fatal("rejected duplicate Add changed the generation")
	}
}

// TestSelectBatchNoAllocs is the allocation guard for the warm Ask
// path: with the history unchanged since the last fit, a k=1 ranking
// selection rescores the whole pool (kripke-exec's 1 612 rows, under
// serialScoreCutoff, so on the calling goroutine) into the acquirer's
// buffers and must not allocate at all.
func TestSelectBatchNoAllocs(t *testing.T) {
	tn := warmKripkeTuner(t, 40)
	if _, err := tn.SelectBatch(1); err != nil { // size the buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		picks, err := tn.SelectBatch(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(picks) != 1 {
			t.Fatal("no pick")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state SelectBatch(1) allocates %.1f objects per call, want 0", allocs)
	}
}

// TestResumeIncrementalFit drives a resumed tuner and checks the
// first incremental fit over the folded-in history matches a cold
// rebuild — the journal-replay path of hiperbotd.
func TestResumeIncrementalFit(t *testing.T) {
	sp := mixedSpace()
	rng := stats.NewRNG(23)
	src := core.NewHistory(sp)
	for src.Len() < 25 {
		c := sp.Sample(rng)
		if src.Contains(c) {
			continue
		}
		src.MustAdd(c, rng.Float64()*10)
	}
	tn, err := core.NewTuner(sp, func(space.Config) float64 { panic("not evaluated") },
		core.Options{Seed: 5, Engine: core.Proposal})
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.Resume(src); err != nil {
		t.Fatal(err)
	}
	imp, err := tn.Importance()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := core.BuildSurrogate(tn.History(), core.SurrogateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := cold.Importance()
	if len(imp) != len(want) {
		t.Fatalf("importance has %d entries, want %d", len(imp), len(want))
	}
	for i := range imp {
		if imp[i] != want[i] {
			t.Fatalf("importance[%d] = %v (incremental) != %v (cold)", i, imp[i], want[i])
		}
	}
}
