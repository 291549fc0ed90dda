package core

import (
	"math"
	"testing"

	"github.com/hpcautotune/hiperbot/internal/space"
)

// quadSpace is a discrete space with a clear optimum at (2, 3).
func quadSpace() *space.Space {
	return space.New(
		space.DiscreteInts("p", 0, 1, 2, 3, 4, 5, 6, 7),
		space.DiscreteInts("q", 0, 1, 2, 3, 4, 5, 6, 7),
	)
}

func quadObjective(c space.Config) float64 {
	dp := c[0] - 2
	dq := c[1] - 3
	return dp*dp + dq*dq
}

func TestTunerFindsOptimumRanking(t *testing.T) {
	tn, err := NewTuner(quadSpace(), quadObjective, Options{
		InitialSamples: 10, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	best, err := tn.Run(40)
	if err != nil {
		t.Fatal(err)
	}
	if best.Value != 0 {
		t.Fatalf("best = %+v, want the optimum (2,3)", best)
	}
	if tn.Evaluations() != 40 {
		t.Fatalf("evaluations = %d, want 40", tn.Evaluations())
	}
}

func TestTunerBeatsRandomOnAverage(t *testing.T) {
	// On a structured objective the surrogate-guided search must find
	// strictly better configurations than uniform random sampling at
	// the same budget, averaged over seeds.
	sp := space.New(
		space.DiscreteInts("a", 0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
		space.DiscreteInts("b", 0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
		space.DiscreteInts("c", 0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
	)
	obj := func(c space.Config) float64 {
		return math.Abs(c[0]-7) + math.Abs(c[1]-2)*1.5 + math.Abs(c[2]-5)*0.7
	}
	const budget = 60
	var tunerSum, randomSum float64
	const reps = 10
	for seed := uint64(0); seed < reps; seed++ {
		tn, err := NewTuner(sp, obj, Options{InitialSamples: 15, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		best, err := tn.Run(budget)
		if err != nil {
			t.Fatal(err)
		}
		tunerSum += best.Value

		// Random baseline with the same budget.
		rtn, err := NewTuner(sp, obj, Options{InitialSamples: budget, Seed: seed + 1000})
		if err != nil {
			t.Fatal(err)
		}
		rbest, err := rtn.Run(budget)
		if err != nil {
			t.Fatal(err)
		}
		randomSum += rbest.Value
	}
	if tunerSum >= randomSum {
		t.Fatalf("tuner (%v) not better than random (%v) over %d seeds", tunerSum, randomSum, reps)
	}
}

func TestTunerDeterministicForSeed(t *testing.T) {
	run := func() []float64 {
		tn, err := NewTuner(quadSpace(), quadObjective, Options{InitialSamples: 8, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tn.Run(30); err != nil {
			t.Fatal(err)
		}
		return tn.History().Values()
	}
	a := run()
	b := run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at step %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTunerNeverRepeatsConfigsRanking(t *testing.T) {
	tn, err := NewTuner(quadSpace(), quadObjective, Options{InitialSamples: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Run(64); err != nil { // the whole space
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	sp := quadSpace()
	for _, o := range tn.History().Observations() {
		k := sp.Key(o.Config)
		if seen[k] {
			t.Fatalf("config %v evaluated twice", o.Config)
		}
		seen[k] = true
	}
	if len(seen) != 64 {
		t.Fatalf("covered %d/64 configs", len(seen))
	}
}

func TestTunerBudgetExceedsSpaceRejected(t *testing.T) {
	tn, err := NewTuner(quadSpace(), quadObjective, Options{InitialSamples: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Run(65); err == nil {
		t.Fatal("budget beyond space size accepted")
	}
}

func TestTunerBudgetBelowInitRejected(t *testing.T) {
	tn, err := NewTuner(quadSpace(), quadObjective, Options{InitialSamples: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Run(10); err == nil {
		t.Fatal("budget below initial samples accepted")
	}
}

func TestTunerOnStepSeesEveryEvaluation(t *testing.T) {
	var iters []int
	var count int
	tn, err := NewTuner(quadSpace(), quadObjective, Options{
		InitialSamples: 6, Seed: 5,
		OnStep: func(i int, o Observation) {
			iters = append(iters, i)
			count++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Run(20); err != nil {
		t.Fatal(err)
	}
	if count != 20 {
		t.Fatalf("OnStep fired %d times, want 20", count)
	}
	for i, it := range iters {
		if it != i {
			t.Fatalf("iteration numbering wrong: %v", iters)
		}
	}
}

func TestTunerProposalStrategyOnContinuousSpace(t *testing.T) {
	sp := space.New(space.Continuous("x", 0, 5))
	obj := func(c space.Config) float64 {
		return (c[0] - 1.5) * (c[0] - 1.5)
	}
	tn, err := NewTuner(sp, obj, Options{InitialSamples: 10, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if tn.EngineName() != Proposal {
		t.Fatalf("continuous space must force Proposal, got %v", tn.EngineName())
	}
	best, err := tn.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(best.Config[0]-1.5) > 0.5 {
		t.Fatalf("proposal strategy best x = %v, want near 1.5", best.Config[0])
	}
}

func TestTunerProposalOnDiscreteSpaceWorks(t *testing.T) {
	tn, err := NewTuner(quadSpace(), quadObjective, Options{
		InitialSamples: 8, Seed: 17, Engine: Proposal,
	})
	if err != nil {
		t.Fatal(err)
	}
	best, err := tn.Run(40)
	if err != nil {
		t.Fatal(err)
	}
	if best.Value > 2 {
		t.Fatalf("proposal best = %+v, want near optimum", best)
	}
	// No duplicates even under Proposal (finite space).
	seen := make(map[string]bool)
	sp := quadSpace()
	for _, o := range tn.History().Observations() {
		k := sp.Key(o.Config)
		if seen[k] {
			t.Fatalf("duplicate evaluation under proposal: %v", o.Config)
		}
		seen[k] = true
	}
}

func TestTunerExplicitCandidates(t *testing.T) {
	sp := quadSpace()
	// Restrict to a diagonal subset.
	var cands []space.Config
	for i := 0; i < 8; i++ {
		cands = append(cands, space.Config{float64(i), float64(i)})
	}
	tn, err := NewTuner(sp, quadObjective, Options{
		InitialSamples: 3, Seed: 2, Candidates: cands,
	})
	if err != nil {
		t.Fatal(err)
	}
	best, err := tn.Run(8)
	if err != nil {
		t.Fatal(err)
	}
	// Best on the diagonal: (2,2) → 0+1 = 1 or (3,3) → 1+0 = 1.
	if best.Value != 1 {
		t.Fatalf("best on diagonal = %+v, want value 1", best)
	}
	for _, o := range tn.History().Observations() {
		if o.Config[0] != o.Config[1] {
			t.Fatalf("evaluated off-candidate config %v", o.Config)
		}
	}
}

func TestTunerDuplicateCandidatesRejected(t *testing.T) {
	cands := []space.Config{{0, 0}, {0, 0}}
	if _, err := NewTuner(quadSpace(), quadObjective, Options{Candidates: cands}); err == nil {
		t.Fatal("duplicate candidates accepted")
	}
}

func TestTunerNilObjectiveRejected(t *testing.T) {
	if _, err := NewTuner(quadSpace(), nil, Options{}); err == nil {
		t.Fatal("nil objective accepted")
	}
}

func TestRunUntilStall(t *testing.T) {
	evals := 0
	obj := func(c space.Config) float64 {
		evals++
		return quadObjective(c)
	}
	tn, err := NewTuner(quadSpace(), obj, Options{InitialSamples: 8, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	best, err := tn.RunUntilStall(64, 5, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if best.Value > 1 {
		t.Fatalf("stall termination quit too early: best %v", best.Value)
	}
	if evals == 64 {
		t.Fatal("stall termination never triggered")
	}
}

func TestRunUntilStallValidatesLimit(t *testing.T) {
	tn, err := NewTuner(quadSpace(), quadObjective, Options{InitialSamples: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.RunUntilStall(30, 0, 0.01); err == nil {
		t.Fatal("stallLimit 0 accepted")
	}
}

func TestTunerSmallInitRejected(t *testing.T) {
	if _, err := NewTuner(quadSpace(), quadObjective, Options{InitialSamples: 1}); err == nil {
		t.Fatal("InitialSamples=1 accepted")
	}
}

func TestStepByStepMatchesRun(t *testing.T) {
	mk := func() *Tuner {
		tn, err := NewTuner(quadSpace(), quadObjective, Options{InitialSamples: 6, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		return tn
	}
	a := mk()
	if _, err := a.Run(25); err != nil {
		t.Fatal(err)
	}
	b := mk()
	for i := 0; i < 25; i++ {
		if _, err := b.Step(); err != nil {
			t.Fatal(err)
		}
	}
	av, bv := a.History().Values(), b.History().Values()
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("Step sequence diverges from Run at %d", i)
		}
	}
}

func TestParallelScoringMatchesSerial(t *testing.T) {
	runWith := func(par int) []float64 {
		tn, err := NewTuner(quadSpace(), quadObjective, Options{
			InitialSamples: 6, Seed: 55, Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tn.Run(30); err != nil {
			t.Fatal(err)
		}
		return tn.History().Values()
	}
	serial := runWith(1)
	parallel := runWith(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("parallel scoring changed the trajectory at step %d", i)
		}
	}
}

// TestObserveRejectsOutOfRangeConfig checks that Observe and
// ObserveObs check a configuration against the space, as AskTell.Tell
// and ResumeObs do: an out-of-range level would otherwise enter the
// history and index past a density's table at the next fit.
func TestObserveRejectsOutOfRangeConfig(t *testing.T) {
	sp := space.New(space.DiscreteInts("a", 0, 1, 2), space.DiscreteInts("b", 0, 1, 2, 3))
	tn, err := NewTuner(sp, func(space.Config) float64 { return 0 }, Options{InitialSamples: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []space.Config{{7, 0}, {-1, 0}, {0.5, 0}, {0, 4}, {0}} {
		if err := tn.Observe(bad, 1); err == nil {
			t.Fatalf("Observe(%v) accepted a configuration outside the space", bad)
		}
		if err := tn.ObserveObs(Observation{Config: bad, Value: 1}); err == nil {
			t.Fatalf("ObserveObs(%v) accepted a configuration outside the space", bad)
		}
	}
	if n := tn.Evaluations(); n != 0 {
		t.Fatalf("%d evaluations after rejected observes, want 0", n)
	}
	for i, c := range []space.Config{{0, 0}, {2, 3}} {
		if err := tn.Observe(c, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tn.SelectBatch(1); err != nil {
		t.Fatal(err)
	}
}
