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
