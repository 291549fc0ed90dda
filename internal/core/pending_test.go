package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/hpcautotune/hiperbot/internal/space"
	"github.com/hpcautotune/hiperbot/internal/stats"
)

func TestParseLiarPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want LiarPolicy
		ok   bool
	}{
		{"", LiarMean, true},
		{"mean", LiarMean, true},
		{"min", LiarMin, true},
		{"max", LiarMax, true},
		{"MIN", LiarMin, true}, // case-insensitive, like fsync policies
		{"median", 0, false},
	}
	for _, c := range cases {
		got, err := ParseLiarPolicy(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseLiarPolicy(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseLiarPolicy(%q) accepted an unknown policy", c.in)
		}
	}
}

func TestPendingHashOrderIndependent(t *testing.T) {
	sp := space.New(
		space.DiscreteInts("x", 0, 1, 2, 3),
		space.DiscreteInts("y", 0, 1, 2, 3),
	)
	a, b, c := space.Config{0, 1}, space.Config{2, 3}, space.Config{1, 1}

	h1 := NewHistory(sp)
	h1.AddPending(a)
	h1.AddPending(b)
	h1.AddPending(c)

	h2 := NewHistory(sp)
	h2.AddPending(c)
	h2.AddPending(a)
	h2.AddPending(b)

	if h1.PendingHash() != h2.PendingHash() {
		t.Fatal("pending hash depends on insertion order")
	}
	// Adding an already-pending config is a no-op.
	before := h1.PendingHash()
	h1.AddPending(a)
	if h1.PendingHash() != before || h1.PendingLen() != 3 {
		t.Fatal("re-adding a pending config changed the overlay")
	}
	// Removing everything restores the empty hash (0), so the
	// no-pending cache key degenerates to the generation alone.
	h1.RemovePending(b)
	h1.RemovePending(a)
	h1.RemovePending(c)
	if h1.PendingHash() != 0 || h1.PendingLen() != 0 {
		t.Fatalf("emptied overlay: hash=%d len=%d, want 0, 0", h1.PendingHash(), h1.PendingLen())
	}
}

func TestFantasizedLiarValues(t *testing.T) {
	sp := space.New(
		space.DiscreteInts("x", 0, 1, 2, 3),
		space.DiscreteInts("y", 0, 1, 2, 3),
	)
	obs := []Observation{
		{Config: space.Config{0, 0}, Value: 4},
		{Config: space.Config{1, 1}, Value: 1},
		{Config: space.Config{2, 2}, Value: 7},
	}
	for _, tc := range []struct {
		policy LiarPolicy
		want   float64
	}{
		{LiarMin, 1},
		{LiarMean, 4},
		{LiarMax, 7},
	} {
		h := NewHistory(sp)
		h.SetLiar(tc.policy)
		for _, o := range obs {
			if err := h.AddObs(o); err != nil {
				t.Fatal(err)
			}
		}
		// No pending: the fantasized view IS the history.
		if h.Fantasized() != h {
			t.Fatalf("%v: Fantasized with empty overlay is not the history itself", tc.policy)
		}
		h.AddPending(space.Config{3, 3})
		f := h.Fantasized()
		if f == h {
			t.Fatalf("%v: Fantasized with pending returned the bare history", tc.policy)
		}
		if f.Len() != h.Len()+1 {
			t.Fatalf("%v: fantasized length %d, want %d", tc.policy, f.Len(), h.Len()+1)
		}
		if got := f.At(f.Len() - 1).Value; got != tc.want {
			t.Errorf("%v: fantasy value %v, want %v", tc.policy, got, tc.want)
		}
		// The real history is untouched and its best is unchanged.
		if h.Len() != 3 || h.Best().Value != 1 {
			t.Fatalf("%v: fantasization mutated the real history", tc.policy)
		}
		// Same (generation, overlay) → the cached view is reused.
		if h.Fantasized() != f {
			t.Errorf("%v: repeated Fantasized rebuilt the view", tc.policy)
		}
		// A new observation invalidates the cache.
		if err := h.AddObs(Observation{Config: space.Config{0, 1}, Value: 2}); err != nil {
			t.Fatal(err)
		}
		if h.Fantasized() == f {
			t.Errorf("%v: Fantasized served a stale view across a generation bump", tc.policy)
		}
	}
}

// TestFantasizedFitMatchesCold drives random AddObs, AddPending and
// RemovePending steps over a mixed discrete and continuous space with
// tied values, under every liar policy, with and without a transfer
// prior. After every Fit the model must score probes and draw samples
// bit-identically to a cold BuildSurrogate of h.Fantasized(), and its
// Surrogate must still be the exact cold build of the observations.
func TestFantasizedFitMatchesCold(t *testing.T) {
	sp := space.New(
		space.DiscreteInts("threads", 1, 2, 4, 8),
		space.Discrete("layout", "aos", "soa", "hybrid"),
		space.Continuous("alpha", 0, 1),
		space.DiscreteInts("tile", 8, 16, 32, 64, 128),
		space.Continuous("beta", -2, 2),
	)
	// Few distinct values, so thresholds sit on ties and the liar value
	// often equals observed ones.
	value := func(r *stats.RNG, c space.Config) float64 {
		return float64(r.Intn(5)) + math.Round(4*c[2])/4
	}
	srcRNG := stats.NewRNG(99)
	src := NewHistory(sp)
	for src.Len() < 30 {
		if c := sp.Sample(srcRNG); !src.Contains(c) {
			src.MustAdd(c, value(srcRNG, c))
		}
	}
	prior, err := NewPrior(src, SurrogateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

	for _, liar := range []LiarPolicy{LiarMean, LiarMin, LiarMax} {
		for _, withPrior := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/prior=%v", liar, withPrior), func(t *testing.T) {
				cfg := SurrogateConfig{}
				seed := uint64(10*int(liar) + 1)
				if withPrior {
					cfg.Prior = prior
					seed++
				}
				rng := stats.NewRNG(seed)
				h := NewHistory(sp)
				h.SetLiar(liar)
				model := &TPEModel{cfg: cfg}
				var pending []space.Config
				fresh := func() space.Config {
					for {
						c := sp.Sample(rng)
						if !h.Contains(c) && !containsConfig(pending, c) {
							return c
						}
					}
				}
				probes := make([]space.Config, 16)
				for i := range probes {
					probes[i] = sp.Sample(rng)
				}
				for step := 0; step < 150; step++ {
					switch op := rng.Intn(10); {
					case op < 4 || h.Len() < 2:
						// A result arrives: mostly for a pending
						// configuration, which leaves the overlay first
						// (as Tell releases its lease), sometimes for a
						// fresh one.
						var c space.Config
						if len(pending) > 0 && rng.Intn(3) > 0 {
							i := rng.Intn(len(pending))
							c = pending[i]
							pending = append(pending[:i], pending[i+1:]...)
							h.RemovePending(c)
						} else {
							c = fresh()
						}
						h.MustAdd(c, value(rng, c))
					case op < 7:
						c := fresh()
						pending = append(pending, c)
						h.AddPending(c)
					case len(pending) > 0:
						i := rng.Intn(len(pending))
						h.RemovePending(pending[i])
						pending = append(pending[:i], pending[i+1:]...)
					}
					if err := model.Fit(h); err != nil {
						t.Fatalf("step %d: fit: %v", step, err)
					}
					cold, err := BuildSurrogate(h.Fantasized(), cfg)
					if err != nil {
						t.Fatalf("step %d: cold fantasized build: %v", step, err)
					}
					exact, err := BuildSurrogate(h, cfg)
					if err != nil {
						t.Fatalf("step %d: cold exact build: %v", step, err)
					}
					for _, pair := range []struct {
						name      string
						got, want *Surrogate
					}{{"fantasized", model.current(), cold}, {"exact", model.Surrogate(), exact}} {
						got, want := pair.got, pair.want
						if !sameBits(got.Threshold(), want.Threshold()) || got.GoodCount() != want.GoodCount() || got.BadCount() != want.BadCount() {
							t.Fatalf("step %d (%d observed, %d pending): %s split %v %d/%d, cold %v %d/%d",
								step, h.Len(), h.PendingLen(), pair.name, got.Threshold(), got.GoodCount(), got.BadCount(),
								want.Threshold(), want.GoodCount(), want.BadCount())
						}
					}
					for _, c := range append(probes, pending...) {
						if g, w := model.Score(c), cold.Score(c); !sameBits(g, w) {
							t.Fatalf("step %d: score(%s) = %v, cold fantasized %v", step, sp.Describe(c), g, w)
						}
						if g, w := model.Surrogate().Score(c), exact.Score(c); !sameBits(g, w) {
							t.Fatalf("step %d: exact score(%s) = %v, cold exact %v", step, sp.Describe(c), g, w)
						}
					}
					r1, r2 := stats.NewRNG(uint64(step)), stats.NewRNG(uint64(step))
					for i := 0; i < 8; i++ {
						g, w := model.Sample(r1), cold.SampleGood(r2)
						for d := range w {
							if !sameBits(g[d], w[d]) {
								t.Fatalf("step %d: sample %d = %s, cold fantasized %s", step, i, sp.Key(g), sp.Key(w))
							}
						}
					}
				}
			})
		}
	}
}

func TestAskTellHeapExpiry(t *testing.T) {
	at := newAskTellTuner(t, 4)
	now := time.Now()
	// Stagger three leases at 1s, 2s, 3s.
	var picks []space.Config
	for i := 1; i <= 3; i++ {
		p, err := at.Ask(1, time.Duration(i)*time.Second, now)
		if err != nil {
			t.Fatal(err)
		}
		picks = append(picks, p...)
	}
	if got := at.Leases(now); got != 3 {
		t.Fatalf("Leases = %d, want 3", got)
	}
	if got := at.Tuner().History().PendingLen(); got != 3 {
		t.Fatalf("PendingLen = %d, want 3 (one fantasy per live lease)", got)
	}
	// Expiry is incremental: each second drops exactly one.
	for i := 1; i <= 3; i++ {
		later := now.Add(time.Duration(i)*time.Second + 100*time.Millisecond)
		if got := at.Leases(later); got != 3-i {
			t.Fatalf("Leases after %ds = %d, want %d", i, got, 3-i)
		}
		if got := at.Tuner().History().PendingLen(); got != 3-i {
			t.Fatalf("PendingLen after %ds = %d, want %d (expiry must drop the fantasy)", i, got, 3-i)
		}
	}
	// Expired candidates return to the pool; re-issuing them is the
	// only way the duplicate counter advances.
	if at.DuplicateSuggestions() != 0 {
		t.Fatalf("DuplicateSuggestions = %d before any re-issue", at.DuplicateSuggestions())
	}
	later := now.Add(time.Hour)
	re, err := at.Ask(16, 0, later)
	if err != nil {
		t.Fatal(err)
	}
	if len(re) != 16 {
		t.Fatalf("re-leased %d, want the whole 16-config space", len(re))
	}
	if got := at.DuplicateSuggestions(); got != 3 {
		t.Fatalf("DuplicateSuggestions = %d, want 3 (the expired leases)", got)
	}
}

func TestAskTellRenew(t *testing.T) {
	at := newAskTellTuner(t, 4)
	now := time.Now()
	picks, err := at.Ask(2, time.Second, now)
	if err != nil {
		t.Fatal(err)
	}
	// Renew the first pick past the original deadline; let the second
	// lapse. A config never leased is reported lost immediately.
	foreign := space.Config{3, 3}
	if at.Tuner().History().Space().Key(picks[0]) == at.Tuner().History().Space().Key(foreign) ||
		at.Tuner().History().Space().Key(picks[1]) == at.Tuner().History().Space().Key(foreign) {
		foreign = space.Config{2, 1}
	}
	renewed, lost := at.Renew([]space.Config{picks[0], foreign}, time.Minute, now)
	if renewed != 1 || len(lost) != 1 {
		t.Fatalf("Renew = %d renewed, %d lost; want 1, 1", renewed, len(lost))
	}
	later := now.Add(2 * time.Second)
	if got := at.Leases(later); got != 1 {
		t.Fatalf("Leases after original deadline = %d, want only the renewed one", got)
	}
	// The renewed lease survives its orphaned heap entry (lazy
	// deletion): renewing again after the old deadline still finds it.
	renewed, lost = at.Renew(picks[:1], time.Minute, later)
	if renewed != 1 || len(lost) != 0 {
		t.Fatalf("second Renew = %d renewed, %d lost; want 1, 0", renewed, len(lost))
	}
	// The lapsed pick is lost once expired.
	_, lost = at.Renew(picks[1:2], time.Minute, later)
	if len(lost) != 1 {
		t.Fatalf("renewing an expired lease reported %d lost, want 1", len(lost))
	}
}

// TestAskTellSerialMatchesSelectBatch pins the serial bit-identity
// guarantee: with one lease at a time and every result told before the
// next ask, Ask(1)/Tell reproduces exactly the Tuner-driven
// SelectInitial/SelectBatch sequence — the pending overlay is empty at
// every fit, so fantasization never engages and the no-pending path
// stays bit-identical to the overlay-free tuner.
func TestAskTellSerialMatchesSelectBatch(t *testing.T) {
	sp := space.New(
		space.DiscreteInts("x", 0, 1, 2, 3),
		space.DiscreteInts("y", 0, 1, 2, 3),
		space.DiscreteInts("z", 0, 1, 2),
	)
	value := func(c space.Config) float64 {
		return (c[0]-1)*(c[0]-1) + (c[1]-2)*(c[1]-2) + 0.5*c[2]
	}
	mk := func() *Tuner {
		tn, err := NewTuner(sp, func(space.Config) float64 {
			panic("driven externally")
		}, Options{InitialSamples: 6, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return tn
	}

	// Reference: the plain Tuner loop, no lease bookkeeping at all.
	ref := mk()
	var want []string
	for ref.Evaluations() < 20 {
		var picks []space.Config
		var err error
		if ref.Evaluations() < ref.InitialSamples() {
			picks, err = ref.SelectInitial(1)
		} else {
			picks, err = ref.SelectBatch(1)
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(picks) == 0 {
			break
		}
		want = append(want, sp.Key(picks[0]))
		if err := ref.Observe(picks[0], value(picks[0])); err != nil {
			t.Fatal(err)
		}
	}

	// Same seed, driven through pending-aware Ask/Tell, serially.
	at := NewAskTell(mk())
	now := time.Now()
	var got []string
	for at.Tuner().Evaluations() < 20 {
		picks, err := at.Ask(1, time.Minute, now)
		if err != nil {
			t.Fatal(err)
		}
		if len(picks) == 0 {
			break
		}
		got = append(got, sp.Key(picks[0]))
		if _, err := at.Tell(picks[0], value(picks[0])); err != nil {
			t.Fatal(err)
		}
	}

	if len(got) != len(want) {
		t.Fatalf("sequence lengths differ: ask/tell %d vs tuner %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pick %d diverged: ask/tell %s vs tuner %s", i, got[i], want[i])
		}
	}
}

// TestAskTellBatchFantasizesPicks checks the tentpole's core behavior:
// in the model phase a single Ask(k) selects one candidate at a time
// with each pick fantasized before the next, so the batch is distinct
// and every pick carries a pending fantasy until its result arrives.
func TestAskTellBatchFantasizesPicks(t *testing.T) {
	at := newAskTellTuner(t, 4)
	now := time.Now()
	for at.InitialPhase() {
		picks, err := at.Ask(1, time.Minute, now)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := at.Tell(picks[0], synthValue(picks[0])); err != nil {
			t.Fatal(err)
		}
	}
	picks, err := at.Ask(4, time.Minute, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(picks) != 4 {
		t.Fatalf("model-phase Ask(4) returned %d picks", len(picks))
	}
	sp := at.Tuner().History().Space()
	seen := make(map[string]bool)
	for _, c := range picks {
		key := sp.Key(c)
		if seen[key] {
			t.Fatalf("batch contains duplicate %s", sp.Describe(c))
		}
		seen[key] = true
	}
	if got := at.Tuner().History().PendingLen(); got != 4 {
		t.Fatalf("PendingLen = %d after Ask(4), want 4", got)
	}
	// Telling one result releases exactly its fantasy.
	if _, err := at.Tell(picks[0], synthValue(picks[0])); err != nil {
		t.Fatal(err)
	}
	if got := at.Tuner().History().PendingLen(); got != 3 {
		t.Fatalf("PendingLen = %d after one Tell, want 3", got)
	}
}
