package core

import (
	"testing"
	"time"

	"github.com/hpcautotune/hiperbot/internal/space"
)

func newAskTellTuner(t *testing.T, initial int) *AskTell {
	t.Helper()
	sp := space.New(
		space.DiscreteInts("x", 0, 1, 2, 3),
		space.DiscreteInts("y", 0, 1, 2, 3),
	)
	tn, err := NewTuner(sp, func(space.Config) float64 {
		panic("ask/tell tuner must not evaluate")
	}, Options{InitialSamples: initial, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return NewAskTell(tn)
}

func synthValue(c space.Config) float64 {
	return (c[0]-1)*(c[0]-1) + (c[1]-2)*(c[1]-2)
}

func TestAskTellLeasesExcludeOutstanding(t *testing.T) {
	at := newAskTellTuner(t, 4)
	now := time.Now()
	first, err := at.Ask(3, time.Minute, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 3 {
		t.Fatalf("leased %d candidates, want 3", len(first))
	}
	second, err := at.Ask(3, time.Minute, now)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	sp := at.Tuner().History().Space()
	for _, c := range first {
		seen[sp.Key(c)] = true
	}
	for _, c := range second {
		if seen[sp.Key(c)] {
			t.Fatalf("candidate %s leased twice while its lease is live", sp.Describe(c))
		}
	}
	if got := at.Leases(now); got != 6 {
		t.Fatalf("Leases = %d, want 6", got)
	}
}

func TestAskTellLeaseExpiryReturnsCandidates(t *testing.T) {
	at := newAskTellTuner(t, 4)
	now := time.Now()
	first, err := at.Ask(16, time.Second, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 16 {
		t.Fatalf("leased %d, want the whole 16-config space", len(first))
	}
	// Everything is leased: nothing left to hand out.
	empty, err := at.Ask(1, time.Second, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Fatalf("leased %d candidates from a fully leased pool", len(empty))
	}
	// After expiry the candidates return to the pool.
	later := now.Add(2 * time.Second)
	if got := at.Leases(later); got != 0 {
		t.Fatalf("Leases after expiry = %d, want 0", got)
	}
	again, err := at.Ask(4, time.Second, later)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 4 {
		t.Fatalf("re-leased %d candidates after expiry, want 4", len(again))
	}
}

func TestAskTellTellIdempotent(t *testing.T) {
	at := newAskTellTuner(t, 2)
	now := time.Now()
	picks, err := at.Ask(2, time.Minute, now)
	if err != nil {
		t.Fatal(err)
	}
	added, err := at.Tell(picks[0], synthValue(picks[0]))
	if err != nil || !added {
		t.Fatalf("first Tell: added=%v err=%v", added, err)
	}
	// Retried delivery of the same result must be a no-op.
	added, err = at.Tell(picks[0], synthValue(picks[0]))
	if err != nil || added {
		t.Fatalf("duplicate Tell: added=%v err=%v, want false,nil", added, err)
	}
	if n := at.Tuner().Evaluations(); n != 1 {
		t.Fatalf("Evaluations = %d, want 1", n)
	}
	if got := at.Leases(now); got != 1 {
		t.Fatalf("Leases = %d, want only the unreported pick", got)
	}
}

func TestAskTellRejectsInvalidConfig(t *testing.T) {
	at := newAskTellTuner(t, 2)
	if _, err := at.Tell(space.Config{99, 0}, 1); err == nil {
		t.Fatal("Tell accepted an out-of-range config")
	}
	if _, err := at.Tell(space.Config{0}, 1); err == nil {
		t.Fatal("Tell accepted a config with wrong arity")
	}
}

func TestAskTellModelPhaseAfterInitial(t *testing.T) {
	at := newAskTellTuner(t, 4)
	now := time.Now()
	for at.InitialPhase() {
		picks, err := at.Ask(2, time.Minute, now)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range picks {
			if _, err := at.Tell(c, synthValue(c)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Model phase goes through SelectBatch; leased candidates must
	// still be excluded and nothing may repeat an evaluation.
	picks, err := at.Ask(3, time.Minute, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(picks) == 0 {
		t.Fatal("model-phase Ask returned no candidates")
	}
	h := at.Tuner().History()
	for _, c := range picks {
		if h.Contains(c) {
			t.Fatalf("model-phase Ask suggested already-evaluated config %v", c)
		}
	}
	for _, c := range picks {
		if _, err := at.Tell(c, synthValue(c)); err != nil {
			t.Fatal(err)
		}
	}
	if at.Tuner().Best().Value != 0 && at.Tuner().Evaluations() < 16 {
		// Keep driving to exhaustion to prove the loop terminates
		// cleanly at the pool boundary.
		for {
			picks, err := at.Ask(4, time.Minute, now)
			if err != nil {
				t.Fatal(err)
			}
			if len(picks) == 0 {
				break
			}
			for _, c := range picks {
				if _, err := at.Tell(c, synthValue(c)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if best := at.Tuner().Best(); best.Value != 0 {
		t.Fatalf("best = %+v, want the optimum (1,2)", best)
	}
}

func TestSelectInitialDistinct(t *testing.T) {
	at := newAskTellTuner(t, 8)
	picks, err := at.Tuner().SelectInitial(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(picks) != 8 {
		t.Fatalf("SelectInitial returned %d configs, want 8", len(picks))
	}
	sp := at.Tuner().History().Space()
	seen := make(map[string]bool)
	for _, c := range picks {
		key := sp.Key(c)
		if seen[key] {
			t.Fatalf("SelectInitial returned duplicate %s", sp.Describe(c))
		}
		seen[key] = true
	}
}

// grid100 is an unconstrained 10×10 grid.
func grid100() *space.Space {
	levels := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	return space.New(space.DiscreteInts("x", levels...), space.DiscreteInts("y", levels...))
}

// TestAskTellExhaustedAskAllocs bounds what an Ask costs on a 100-point
// grid with no configuration left, for each pool-free engine: once the
// observed and leased configurations cover the grid, the uniform
// fallback must return at once instead of rejection-sampling the space.
// Up to then every Ask(1) must still find a free configuration.
func TestAskTellExhaustedAskAllocs(t *testing.T) {
	sp := grid100()
	value := func(c space.Config) float64 { return (c[0]-3)*(c[0]-3) + (c[1]-6)*(c[1]-6) }
	for _, opts := range []Options{
		{Seed: 3, InitialSamples: 10, Engine: Proposal},
		{Seed: 3, InitialSamples: 10, Engine: "sampling"},
		{Seed: 3, InitialSamples: 10, Engine: "grouped", Groups: [][]string{{"x"}, {"y"}}},
	} {
		tn, err := NewTuner(sp, value, opts)
		if err != nil {
			t.Fatal(err)
		}
		at := NewAskTell(tn)
		now := time.Unix(1_000_000, 0)
		for tn.Evaluations() < 98 {
			picks, err := at.Ask(1, 0, now)
			if err != nil {
				t.Fatal(err)
			}
			if len(picks) != 1 {
				t.Fatalf("%s: Ask(1) returned %d picks with %d configurations free", opts.Engine, len(picks), 100-tn.Evaluations())
			}
			if _, err := at.Tell(picks[0], value(picks[0])); err != nil {
				t.Fatal(err)
			}
		}
		last, err := at.Ask(3, 0, now)
		if err != nil {
			t.Fatal(err)
		}
		if len(last) != 2 {
			t.Fatalf("%s: Ask(3) returned %d picks with 2 configurations free", opts.Engine, len(last))
		}
		exhausted := func(state string) {
			t.Helper()
			allocs := testing.AllocsPerRun(5, func() {
				picks, err := at.Ask(1, 0, now)
				if err != nil || len(picks) != 0 {
					t.Fatalf("%s, %s: Ask(1) = %d picks, %v; want none", opts.Engine, state, len(picks), err)
				}
			})
			if allocs > exhaustedAskAllocs {
				t.Fatalf("%s, %s: an exhausted Ask(1) allocates %.0f objects, want at most %d", opts.Engine, state, allocs, exhaustedAskAllocs)
			}
		}
		exhausted("observed and leased")
		if _, err := at.Tell(last[0], value(last[0])); err != nil {
			t.Fatal(err)
		}
		exhausted("one leased")
		if _, err := at.Tell(last[1], value(last[1])); err != nil {
			t.Fatal(err)
		}
		exhausted("all observed")
	}
}

// exhaustedAskAllocs bounds the allocations of an Ask(1) with nothing
// left: the pick's own good-density draws and scoring (at most
// DefaultCandidateSamples draws), far below the 100 000 draws the
// uniform fallback may make while configurations remain.
const exhaustedAskAllocs = 2 * DefaultCandidateSamples

// TestAskTellObservedLeaseCountsOnce observes a leased configuration
// through the tuner, bypassing Tell, so that it is both observed and
// pending, while one configuration of a 100-point grid is left: the
// uniform draw's exhaustion count must count the overlap once and still
// hand out the last configuration.
func TestAskTellObservedLeaseCountsOnce(t *testing.T) {
	tn, err := NewTuner(grid100(), func(space.Config) float64 { return 0 }, Options{Seed: 4, InitialSamples: 99, Engine: "sampling"})
	if err != nil {
		t.Fatal(err)
	}
	at := NewAskTell(tn)
	now := time.Unix(1_000_000, 0)
	for tn.Evaluations() < 97 {
		picks, err := at.Ask(1, 0, now)
		if err != nil || len(picks) != 1 {
			t.Fatalf("Ask(1) = %v, %v", picks, err)
		}
		if _, err := at.Tell(picks[0], 1); err != nil {
			t.Fatal(err)
		}
	}
	leased, err := at.Ask(2, 0, now)
	if err != nil || len(leased) != 2 {
		t.Fatalf("Ask(2) = %v, %v", leased, err)
	}
	if err := tn.Observe(leased[0], 1); err != nil {
		t.Fatal(err)
	}
	last, err := at.Ask(1, 0, now)
	if err != nil || len(last) != 1 {
		t.Fatalf("Ask(1) with one configuration free = %v, %v", last, err)
	}
	if picks, err := at.Ask(1, 0, now); err != nil || len(picks) != 0 {
		t.Fatalf("Ask(1) on the covered grid = %v, %v", picks, err)
	}
}
