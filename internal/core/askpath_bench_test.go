package core_test

// Benchmarks for the steady-state ask/tell hot path: a warm
// 40-observation Kripke-exec session asked for its next candidate
// over and over. This is the daemon's serving loop (hiperbotd
// Suggest), where selection overhead *is* the workload — unlike the
// paper's offline setting (§VII), where one application run dwarfs it.
// EXPERIMENTS.md records the before/after numbers for the
// fit-incremental + scratch-buffer optimization.

import (
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

// TestAskTellSerialAllocsFlat guards the serial ask path against
// per-candidate work: a warm Ask(1) plus Tell allocates about the same
// on a 1 024-candidate grid as on a 32 768-candidate one. Scoring runs
// on one worker, so the count includes no goroutine fan-out; the
// larger pool only adds ScoreAllInto's chunk view and closure (3
// objects), which pools past serialScoreCutoff pay once per rescore.
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
