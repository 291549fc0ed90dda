package core

import (
	"math"
	"strings"
	"testing"

	"github.com/hpcautotune/hiperbot/internal/space"
	"github.com/hpcautotune/hiperbot/internal/stats"
)

func engineTestSpace() *space.Space {
	return space.New(
		space.Discrete("a", "x", "y", "z"),
		space.DiscreteInts("b", 1, 2, 4, 8),
		space.DiscreteInts("c", 0, 1),
	)
}

func TestEngineRegistry(t *testing.T) {
	names := EngineNames()
	for _, want := range []string{"ranking", "proposal", "random"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("built-in engine %q missing from registry %v", want, names)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("EngineNames not sorted: %v", names)
		}
	}
	if _, ok := LookupEngine("RANKING"); !ok {
		t.Fatal("LookupEngine is not case-insensitive")
	}
	if _, ok := LookupEngine("no-such-engine"); ok {
		t.Fatal("LookupEngine accepted an unknown name")
	}
}

func TestRegisterEngineRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering \"ranking\" did not panic")
		}
	}()
	RegisterEngine(EngineSpec{Name: "ranking", New: func(*space.Space, Options, *Pool) (Model, Acquirer, error) {
		return nil, nil, nil
	}})
}

func TestNewTunerUnknownEngine(t *testing.T) {
	sp := engineTestSpace()
	_, err := NewTuner(sp, func(space.Config) float64 { return 0 }, Options{Engine: "bogus"})
	if err == nil || !strings.Contains(err.Error(), `unknown engine "bogus"`) {
		t.Fatalf("err = %v, want unknown engine", err)
	}
	if err != nil && !strings.Contains(err.Error(), "ranking") {
		t.Fatalf("err %v does not list registered engines", err)
	}
}

// TestNewTunerRejectsNegativeCandidateSamples: a negative draw count
// is an error for every pool-free engine, as it is at session create,
// not a silent "use the default".
func TestNewTunerRejectsNegativeCandidateSamples(t *testing.T) {
	sp := engineTestSpace()
	for _, engine := range []string{Proposal, "sampling", "grouped"} {
		_, err := NewTuner(sp, func(space.Config) float64 { return 0 }, Options{Engine: engine, CandidateSamples: -1})
		if err == nil || !strings.Contains(err.Error(), "candidate samples") {
			t.Fatalf("%s with CandidateSamples -1: err = %v, want a candidate-samples error", engine, err)
		}
	}
}

// TestScoreBatchMatchesScore pins the bit-identical guarantee the
// ranking engine's golden parity rests on: the columnar sweep must
// accumulate per dimension in the same order as Score.
func TestScoreBatchMatchesScore(t *testing.T) {
	sp := engineTestSpace()
	r := stats.NewRNG(3)
	h := NewHistory(sp)
	for i := 0; i < 40; i++ {
		c := sp.Sample(r)
		if h.Contains(c) {
			continue
		}
		h.MustAdd(c, r.Float64())
	}
	s, err := BuildSurrogate(h, SurrogateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	configs := sp.Enumerate()
	batch, err := space.NewBatch(sp, configs)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, batch.Len())
	s.ScoreBatch(batch, dst)
	for i, c := range configs {
		if want := s.Score(c); dst[i] != want {
			t.Fatalf("row %d: ScoreBatch %v != Score %v", i, dst[i], want)
		}
	}

	// ScoreAll must agree for every worker count (chunk boundaries
	// change, per-row arithmetic must not).
	for _, workers := range []int{1, 2, 3, 7} {
		got := make([]float64, batch.Len())
		ScoreAll(s, batch, workers, got)
		for i := range got {
			if got[i] != dst[i] {
				t.Fatalf("workers=%d row %d: ScoreAll %v != ScoreBatch %v", workers, i, got[i], dst[i])
			}
		}
	}
}

// TestEIFiniteOnUnderflow is the regression for the -Inf/NaN EI bug:
// far from every KDE kernel both densities underflow to zero mass, the
// Score becomes NaN (or ±Inf when only one side underflows), and the
// unclamped EI used to propagate that into the acquisition loop.
func TestEIFiniteOnUnderflow(t *testing.T) {
	sp := space.New(
		space.Continuous("x", 0, 1e12),
		space.Continuous("y", 0, 1e12),
	)
	h := NewHistory(sp)
	r := stats.NewRNG(1)
	// Two tight clusters near the origin: good mass near x≈0, bad
	// mass near x≈10, with a tiny fixed bandwidth so the tails die
	// within a few units.
	for i := 0; i < 30; i++ {
		x := r.Float64()
		y := r.Float64()
		v := x // small x is good
		h.MustAdd(space.Config{x, y + 10}, v)
	}
	s, err := BuildSurrogate(h, SurrogateConfig{Bandwidth: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	far := space.Config{1e11, 1e11}
	score := s.Score(far)
	if !math.IsNaN(score) && !math.IsInf(score, 0) {
		t.Fatalf("expected degenerate score far from all kernels, got %v (test setup no longer triggers underflow)", score)
	}
	ei := s.EI(far)
	if math.IsNaN(ei) || math.IsInf(ei, 0) {
		t.Fatalf("EI(degenerate score %v) = %v, want finite", score, ei)
	}
	if ei < 0 || ei > 1/s.alpha+1e-12 {
		t.Fatalf("EI = %v outside [0, 1/α=%v]", ei, 1/s.alpha)
	}

	// Mixed case: one dimension underflows to -Inf while the other is
	// fine — the clamp must keep EI at the zero-improvement end, not
	// produce NaN.
	nearBadOnly := space.Config{1e11, 10.2}
	if ei := s.EI(nearBadOnly); math.IsNaN(ei) || ei < 0 {
		t.Fatalf("EI(partial underflow) = %v", ei)
	}
}

// TestRandomEngineCoversPool checks the pool-backed random acquirer
// draws distinct unevaluated candidates until exhaustion.
func TestRandomEngineCoversPool(t *testing.T) {
	sp := engineTestSpace()
	n := sp.GridSize()
	tn, err := NewTuner(sp, func(space.Config) float64 { return 0 }, Options{
		Engine:         "random",
		InitialSamples: 2,
		Seed:           9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tn.EngineName() != "random" {
		t.Fatalf("EngineName = %q", tn.EngineName())
	}
	if _, err := tn.Run(n); err != nil {
		t.Fatal(err)
	}
	if tn.History().Len() != n {
		t.Fatalf("drew %d of %d configurations", tn.History().Len(), n)
	}
	seen := map[string]bool{}
	for i := 0; i < tn.History().Len(); i++ {
		k := sp.Describe(tn.History().At(i).Config)
		if seen[k] {
			t.Fatalf("duplicate draw %s", k)
		}
		seen[k] = true
	}
	// One more step must fail: nothing left.
	if _, err := tn.Step(); err == nil {
		t.Fatal("Step on an exhausted pool succeeded")
	}
}

// TestGeistNameFailsWithoutRegistration: the geist engine lives in
// internal/geist and registers via its init; core alone must reject
// the name rather than silently substituting another engine.
func TestCoreDoesNotKnowGeistImplicitly(t *testing.T) {
	// This test documents layering, not behavior we rely on: if some
	// core-internal test gains a geist import, the registry will know
	// the name and this becomes vacuous — that's fine.
	if _, ok := LookupEngine("geist"); ok {
		t.Skip("geist registered by another import in this test binary")
	}
	sp := engineTestSpace()
	_, err := NewTuner(sp, func(space.Config) float64 { return 0 }, Options{Engine: "geist"})
	if err == nil {
		t.Fatal("NewTuner accepted an unregistered engine name")
	}
}

// TestPoolLifecycle exercises the swap-removal bookkeeping directly.
func TestPoolLifecycle(t *testing.T) {
	sp := engineTestSpace()
	configs := sp.Enumerate()
	p, err := NewPool(sp, configs)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != len(configs) || p.RemainingCount() != len(configs) {
		t.Fatalf("size %d remaining %d, want %d", p.Size(), p.RemainingCount(), len(configs))
	}
	if got := p.IndexOf(configs[5]); got != 5 {
		t.Fatalf("IndexOf = %d, want 5", got)
	}
	p.MarkEvaluated(configs[5])
	if p.RemainingCount() != len(configs)-1 {
		t.Fatalf("remaining %d after one evaluation", p.RemainingCount())
	}
	for _, idx := range p.Remaining() {
		if idx == 5 {
			t.Fatal("evaluated candidate still in remaining set")
		}
	}
	// IndexOf still resolves evaluated candidates (history membership
	// checks rely on it).
	if got := p.IndexOf(configs[5]); got != 5 {
		t.Fatalf("IndexOf after MarkEvaluated = %d, want 5", got)
	}
	if _, err := NewPool(sp, []space.Config{}); err == nil {
		t.Fatal("empty pool accepted")
	}
	if _, err := NewPool(sp, []space.Config{configs[0], configs[0]}); err == nil {
		t.Fatal("duplicate pool accepted")
	}
	b, err := p.Batch()
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != len(configs) {
		t.Fatalf("pool batch has %d rows", b.Len())
	}
	sub := b.Slice(4, 9)
	if sub.Len() != 5 {
		t.Fatalf("slice len %d", sub.Len())
	}
}
