package core_test

// Benchmarks for the steady-state ask/tell hot path: a warm
// 40-observation Kripke-exec session asked for its next candidate
// over and over. This is the daemon's serving loop (hiperbotd
// Suggest), where selection overhead *is* the workload — unlike the
// paper's offline setting (§VII), where one application run dwarfs it.
// EXPERIMENTS.md records the before/after numbers for the
// fit-incremental + scratch-buffer optimization.

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/hpcautotune/hiperbot/internal/apps/kripke"
	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/space"
)

// warmKripkeTuner returns a ranking tuner over the Kripke exec table
// warmed with warm observations (20 initial + model-guided up to warm).
func warmKripkeTuner(tb testing.TB, warm int) *core.Tuner {
	tb.Helper()
	tbl := kripke.Exec().Table()
	cands := make([]space.Config, tbl.Len())
	for i := 0; i < tbl.Len(); i++ {
		cands[i] = tbl.Config(i)
	}
	tn, err := core.NewTuner(tbl.Space, tbl.Objective(), core.Options{
		Seed:       42,
		Candidates: cands,
	})
	if err != nil {
		tb.Fatal(err)
	}
	for tn.Evaluations() < warm {
		if _, err := tn.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	return tn
}

// BenchmarkSelectBatchWarm measures one model-guided selection with no
// intervening observation — the pure Ask path (fit + score + argmax).
func BenchmarkSelectBatchWarm(b *testing.B) {
	tn := warmKripkeTuner(b, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		picks, err := tn.SelectBatch(1)
		if err != nil {
			b.Fatal(err)
		}
		if len(picks) != 1 {
			b.Fatal("no pick")
		}
	}
}

// BenchmarkAskWarmSteadyState measures AskTell.Ask on the warm session
// with leases expiring between calls, so the history never changes —
// the shape of a worker fleet polling a session between evaluations.
func BenchmarkAskWarmSteadyState(b *testing.B) {
	at := core.NewAskTell(warmKripkeTuner(b, 40))
	now := time.Unix(0, 0)
	const ttl = time.Second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(2 * ttl) // previous lease has lapsed
		picks, err := at.Ask(1, ttl, now)
		if err != nil {
			b.Fatal(err)
		}
		if len(picks) != 1 {
			b.Fatal("no pick")
		}
	}
}

// BenchmarkAskTellWarm interleaves one Tell per Ask — the steady-state
// serving loop once workers report results (each Tell invalidates the
// fitted model, so this measures the incremental refit too).
func BenchmarkAskTellWarm(b *testing.B) {
	tbl := kripke.Exec().Table()
	at := core.NewAskTell(warmKripkeTuner(b, 40))
	now := time.Unix(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(time.Minute)
		picks, err := at.Ask(1, time.Minute, now)
		if err != nil {
			b.Fatal(err)
		}
		if len(picks) == 0 {
			// The finite table is exhausted; restart on a fresh warm
			// session outside the timed region.
			b.StopTimer()
			at = core.NewAskTell(warmKripkeTuner(b, 40))
			b.StartTimer()
			continue
		}
		v, ok := tbl.Lookup(picks[0])
		if !ok {
			b.Fatal("pick outside the table")
		}
		if _, err := at.Tell(picks[0], v); err != nil {
			b.Fatal(err)
		}
	}
}

// gridSpace is a 5-parameter grid with the given number of levels per
// parameter (levels⁵ candidates; 8 levels is the benchmark's daemon
// grid).
func gridSpace(levels int) *space.Space {
	params := make([]space.Param, 5)
	vals := make([]int, levels)
	for i := range vals {
		vals[i] = i
	}
	for d := range params {
		params[d] = space.DiscreteInts(string(rune('a'+d)), vals...)
	}
	return space.New(params...)
}

// gridObjective is a separable bowl over gridSpace(levels) plus one
// interaction term.
func gridObjective(levels int) core.Objective {
	return func(c space.Config) float64 {
		v := 0.0
		for d, x := range c {
			center := float64((d * 3) % levels)
			v += (x - center) * (x - center)
		}
		return v + 0.5*c[0]*c[1]
	}
}

// TestScoreAllChunkedMatchesSerial checks ScoreAll past
// serialScoreCutoff, where it splits the batch into row windows scored
// on worker goroutines, against one serial ScoreBatch sweep, bit for
// bit, on the 32 768-candidate grid at several worker counts.
func TestScoreAllChunkedMatchesSerial(t *testing.T) {
	sp := gridSpace(8)
	s, err := core.BuildSurrogate(gridTuner(t, 8, 60, 1).History(), core.SurrogateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	batch := space.NewGridBatch(sp, sp.GridSize())
	want := make([]float64, batch.Len())
	s.ScoreBatch(batch, want)
	for _, workers := range []int{1, 2, 3, 7} {
		got := make([]float64, batch.Len())
		core.ScoreAll(s, batch, workers, got)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d row %d: ScoreAll %v != ScoreBatch %v", workers, i, got[i], want[i])
			}
		}
	}
}

// gridTuner returns a ranking tuner over gridSpace(levels) stepped
// through warm evaluations.
func gridTuner(tb testing.TB, levels, warm, parallelism int) *core.Tuner {
	tb.Helper()
	tn, err := core.NewTuner(gridSpace(levels), gridObjective(levels), core.Options{Seed: 7, Parallelism: parallelism})
	if err != nil {
		tb.Fatal(err)
	}
	for tn.Evaluations() < warm {
		if _, err := tn.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	return tn
}

// askTell runs one Ask(k) and tells every pick its objective value.
func askTell(tb testing.TB, at *core.AskTell, obj core.Objective, k int, now time.Time) {
	picks, err := at.Ask(k, time.Minute, now)
	if err != nil {
		tb.Fatal(err)
	}
	if len(picks) != k {
		tb.Fatalf("Ask(%d) returned %d picks", k, len(picks))
	}
	for _, c := range picks {
		if _, err := at.Tell(c, obj(c)); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkTunerStep is the reference for the ask path: one
// model-guided Tuner.Step on the 32 768-candidate grid.
func BenchmarkTunerStep(b *testing.B) {
	tn := gridTuner(b, 8, 100, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tn.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAskTellSerial is one warm Ask(1) plus its Tell on the same
// grid — the serial daemon ask, which should cost what Step costs.
func BenchmarkAskTellSerial(b *testing.B) {
	at, obj := core.NewAskTell(gridTuner(b, 8, 100, 0)), gridObjective(8)
	now := time.Unix(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		askTell(b, at, obj, 1, now)
	}
}

// BenchmarkAskTellBatch4 is one warm Ask(4) plus its four Tells: every
// pick after the first sees the earlier ones as live leases.
func BenchmarkAskTellBatch4(b *testing.B) {
	at, obj := core.NewAskTell(gridTuner(b, 8, 100, 0)), gridObjective(8)
	now := time.Unix(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		askTell(b, at, obj, 4, now)
	}
}

// longGridTuner returns a ranking tuner over gridSpace(8) resumed from
// n observations spread over the grid by an odd stride (a permutation
// of the 32 768 grid indices), valued by gridObjective: a long session
// reached without stepping through it.
func longGridTuner(tb testing.TB, n int) *core.Tuner {
	tb.Helper()
	sp, obj := gridSpace(8), gridObjective(8)
	tn, err := core.NewTuner(sp, obj, core.Options{Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	obs := make([]core.Observation, n)
	for i := range obs {
		c := sp.FromGridIndex(longGridIndex(sp, i))
		obs[i] = core.Observation{Config: c, Value: obj(c)}
	}
	if err := tn.ResumeObs(obs); err != nil {
		tb.Fatal(err)
	}
	return tn
}

// longGridIndex is the i-th grid index of longGridTuner's stride order.
func longGridIndex(sp *space.Space, i int) int { return i * 7919 % sp.GridSize() }

// fantasyHistory returns the history of a long session with three
// unobserved configurations pending, and a toggle that adds a fourth
// to the overlay on even calls and removes it on odd ones, so every
// Fit after a toggle sees a new pending set while the observations
// stay put.
func fantasyHistory(tb testing.TB, n int) (*core.History, func(i int)) {
	tb.Helper()
	tn := longGridTuner(tb, n)
	h, sp := tn.History(), tn.History().Space()
	for i := 0; i < 3; i++ {
		h.AddPending(sp.FromGridIndex(longGridIndex(sp, n+i)))
	}
	extra := sp.FromGridIndex(longGridIndex(sp, n+3))
	return h, func(i int) {
		if i%2 == 0 {
			h.AddPending(extra)
		} else {
			h.RemovePending(extra)
		}
	}
}

// BenchmarkFantasizedFit measures one fantasized TPE fit on a long
// session: each Fit misses the (generation, pending hash) cache, but
// no observation arrives between fits.
func BenchmarkFantasizedFit(b *testing.B) {
	for _, n := range []int{1000, 8000} {
		b.Run(fmt.Sprintf("obs=%d", n), func(b *testing.B) {
			h, toggle := fantasyHistory(b, n)
			model := &core.TPEModel{}
			if err := model.Fit(h); err != nil { // the exact fit, outside the timed region
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				toggle(i)
				if err := model.Fit(h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAskTellBatch4Long is BenchmarkAskTellBatch4 on a session
// resumed at 8 000 observations: three of the four picks fit a
// fantasized surrogate over a long history.
func BenchmarkAskTellBatch4Long(b *testing.B) {
	at, obj := core.NewAskTell(longGridTuner(b, 8000)), gridObjective(8)
	now := time.Unix(0, 0)
	askTell(b, at, obj, 4, now) // the exact fit and the score caches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		askTell(b, at, obj, 4, now)
	}
}

// BenchmarkNewTuner builds a ranking tuner and its 32 768-candidate
// pool, as a daemon does for every session it creates or rehydrates.
func BenchmarkNewTuner(b *testing.B) {
	sp, obj := gridSpace(8), gridObjective(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewTuner(sp, obj, core.Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewTunerConstrained is BenchmarkNewTuner on the same grid
// under a constraint that admits half of it (an even level sum): the
// pool walks the grid once and keeps the 16 384 valid grid indices.
func BenchmarkNewTunerConstrained(b *testing.B) {
	sp := gridSpace(8).WithConstraint(func(c space.Config) bool {
		return int(c[0]+c[1]+c[2]+c[3]+c[4])%2 == 0
	})
	obj := gridObjective(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewTuner(sp, obj, core.Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNewTunerBytesPerCandidate guards the pool build on the
// 32 768-candidate grid, which a daemon pays on every create and
// rehydration: NewTuner allocates at most 16 bytes per candidate, the
// remaining set and the position index.
func TestNewTunerBytesPerCandidate(t *testing.T) {
	sp, obj := gridSpace(8), gridObjective(8)
	const builds = 8
	tuners := make([]*core.Tuner, builds)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range tuners {
		tn, err := core.NewTuner(sp, obj, core.Options{Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		tuners[i] = tn
	}
	runtime.ReadMemStats(&after)
	perCandidate := float64(after.TotalAlloc-before.TotalAlloc) / builds / float64(sp.GridSize())
	t.Logf("NewTuner allocates %.1f B per candidate", perCandidate)
	if perCandidate > 16 {
		t.Fatalf("NewTuner allocates %.1f B per candidate on the %d-candidate grid, want at most 16", perCandidate, sp.GridSize())
	}
}

// TestAskTellSerialAllocsFlat guards the serial ask path against
// per-candidate work: a warm Ask(1) plus Tell allocates about the same
// on a 1 024-candidate grid as on a 32 768-candidate one. Scoring runs
// on one worker, so the count includes no goroutine fan-out; the
// larger pool only adds ScoreAll's chunk view and closure (3 objects),
// which pools past serialScoreCutoff pay once per rescore.
func TestAskTellSerialAllocsFlat(t *testing.T) {
	allocs := func(levels int) float64 {
		at, obj := core.NewAskTell(gridTuner(t, levels, 60, 1)), gridObjective(levels)
		now := time.Unix(0, 0)
		askTell(t, at, obj, 1, now) // warm the scratch buffers
		return testing.AllocsPerRun(50, func() { askTell(t, at, obj, 1, now) })
	}
	small, large := allocs(4), allocs(8)
	t.Logf("allocations per Ask(1)+Tell: %.1f at 1 024 candidates, %.1f at 32 768", small, large)
	if large > small+8 {
		t.Fatalf("Ask(1)+Tell allocates %.1f objects on 32 768 candidates, %.1f on 1 024: the ask path does per-candidate work", large, small)
	}
}

// TestFantasizedFitBytesFlat guards the fantasized fit against work
// proportional to the history: the bytes one cache-missing fantasized
// Fit allocates are about the same at 4 000 observations as at 500.
// It reads the TotalAlloc delta rather than AllocsPerRun, because an
// O(n) fit can allocate O(n) bytes in a near-constant number of
// objects.
func TestFantasizedFitBytesFlat(t *testing.T) {
	perFit := func(n int) uint64 {
		h, toggle := fantasyHistory(t, n)
		model := &core.TPEModel{}
		for i := 0; i < 2; i++ { // the exact fit and the fantasy buffers
			toggle(i)
			if err := model.Fit(h); err != nil {
				t.Fatal(err)
			}
		}
		const fits = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < fits; i++ {
			toggle(i)
			if err := model.Fit(h); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / fits
	}
	small, large := perFit(500), perFit(4000)
	t.Logf("bytes per fantasized Fit: %d at 500 observations, %d at 4 000", small, large)
	if large > small+4096 {
		t.Fatalf("a fantasized Fit allocates %d B at 4 000 observations, %d B at 500: the fit does per-observation work", large, small)
	}
}

// TestSamplingAllocsPerDraw guards the pool-free ask path against
// per-draw bookkeeping: with three leases live, a warm Ask(1) plus
// Tell of the sampling engine at 1 024 candidate draws may allocate at
// most one more object per extra draw than at 256 — the drawn row
// itself. Testing a draw against the per-pick set, the history and
// the live leases allocates nothing.
func TestSamplingAllocsPerDraw(t *testing.T) {
	allocs := func(draws int) float64 {
		sp, obj := gridSpace(8), gridObjective(8)
		tn, err := core.NewTuner(sp, obj, core.Options{
			Seed: 7, Engine: "sampling", CandidateSamples: draws, Parallelism: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tn.Run(60); err != nil {
			t.Fatal(err)
		}
		at := core.NewAskTell(tn)
		now := time.Unix(0, 0)
		if picks, err := at.Ask(3, time.Minute, now); err != nil || len(picks) != 3 {
			t.Fatalf("Ask(3) = %d picks, %v", len(picks), err)
		}
		askTell(t, at, obj, 1, now) // warm the fantasy builder
		return testing.AllocsPerRun(50, func() { askTell(t, at, obj, 1, now) })
	}
	small, large := allocs(256), allocs(1024)
	t.Logf("allocations per Ask(1)+Tell with 3 live leases: %.1f at 256 draws, %.1f at 1 024", small, large)
	if large > small+(1024-256) {
		t.Fatalf("Ask(1)+Tell allocates %.1f objects at 1 024 draws, %.1f at 256: more than the drawn row per draw", large, small)
	}
}
