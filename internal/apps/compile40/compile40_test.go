package compile40_test

import (
	"reflect"
	"testing"
	"time"

	"github.com/hpcautotune/hiperbot/internal/apps/compile40"
	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/stats"
)

func TestSpaceShape(t *testing.T) {
	sp := compile40.Space()
	if got := sp.NumParams(); got != 40 {
		t.Fatalf("NumParams = %d, want 40", got)
	}
	grid, ok := sp.GridSize64()
	if !ok || grid != 1<<48 {
		t.Fatalf("grid = %d (ok=%v), want 2^48", grid, ok)
	}
	names := make(map[string]bool)
	for _, g := range compile40.Groups {
		if len(g) != 5 {
			t.Fatalf("group %v has %d members, want 5", g, len(g))
		}
		for _, name := range g {
			if names[name] {
				t.Fatalf("name %q repeated", name)
			}
			names[name] = true
			if sp.IndexOf(name) < 0 {
				t.Fatalf("group name %q not in space", name)
			}
		}
	}
	if len(names) != 40 {
		t.Fatalf("Groups covers %d of 40 parameters", len(names))
	}
}

func TestGroupsSpecRoundTrips(t *testing.T) {
	if got := core.ParseGroups(compile40.GroupsSpec()); !reflect.DeepEqual(got, compile40.Groups) {
		t.Fatalf("ParseGroups(GroupsSpec()) = %v, want %v", got, compile40.Groups)
	}
	if err := core.ValidateGroups(compile40.Space(), compile40.Groups); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	sp := compile40.Space()
	r := stats.NewRNG(1)
	for i := 0; i < 50; i++ {
		c := sp.Sample(r)
		a, b := compile40.Evaluate(c), compile40.Evaluate(c)
		if a != b {
			t.Fatalf("Evaluate(%v) = %v then %v", c, a, b)
		}
		if a <= 0 {
			t.Fatalf("Evaluate(%v) = %v, want > 0", c, a)
		}
	}
}

// The all-best assignment must beat every random draw by a wide
// margin — the basin structure the tuners are meant to find.
func TestBestBeatsRandom(t *testing.T) {
	sp := compile40.Space()
	best := sp.Sample(stats.NewRNG(1))
	for i := range best {
		best[i] = 1
	}
	// Each family's knob peaks at level 2.
	for _, name := range []string{"optlevel", "vecwidth", "tile", "threads", "fpmodel", "isa", "ltomode", "malloc"} {
		best[sp.IndexOf(name)] = 2
	}
	best[sp.IndexOf("optlevel")] = 3 // except -O3
	// The flags whose optimum is "off".
	for _, name := range []string{"nested", "frameptr", "guard"} {
		best[sp.IndexOf(name)] = 0
	}
	bv := compile40.Evaluate(best)
	r := stats.NewRNG(2)
	for i := 0; i < 200; i++ {
		if rv := compile40.Evaluate(sp.Sample(r)); rv <= bv {
			t.Fatalf("random config %v at %v beats tuned best %v", sp.Sample(r), rv, bv)
		}
	}
}

// On the grouped structure at the 200-eval budget, the grouped engine
// should find strictly better configurations than flat sampling on
// most seeds (the EXPERIMENTS.md claim at test scale).
func TestGroupedBeatsFlatAt200(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	wins := 0
	const seeds = 5
	for seed := uint64(1); seed <= seeds; seed++ {
		flat := bestAt(t, "sampling", nil, seed, 200)
		grouped := bestAt(t, "grouped", compile40.Groups, seed, 200)
		if grouped < flat {
			wins++
		}
	}
	if wins < seeds-1 {
		t.Fatalf("grouped won %d/%d seeds, want >= %d", wins, seeds, seeds-1)
	}
}

func bestAt(t testing.TB, engine string, groups [][]string, seed uint64, budget int) float64 {
	t.Helper()
	tn, err := core.NewTuner(compile40.Space(), compile40.Evaluate, core.Options{
		Seed: seed, InitialSamples: 20, Engine: engine, Groups: groups,
	})
	if err != nil {
		t.Fatal(err)
	}
	best, err := tn.Run(budget)
	if err != nil {
		t.Fatal(err)
	}
	return best.Value
}

// benchTuner warms a tuner past its initial phase so the benchmark
// loop measures the steady-state model-guided ask path (each Step
// tells the result back, bumping the history generation, so fit and
// per-group caches are honestly invalidated every iteration).
func benchTuner(b *testing.B, engine string, groups [][]string) *core.Tuner {
	b.Helper()
	tn, err := core.NewTuner(compile40.Space(), compile40.Evaluate, core.Options{
		Seed: 1, InitialSamples: 20, Engine: engine, Groups: groups,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tn.Run(60); err != nil {
		b.Fatal(err)
	}
	return tn
}

// BenchmarkAskFlat40 is the flat sampling engine's per-step cost on
// the 2^48-point grid: CandidateSamples 40-dimensional pg draws plus
// one columnar score pass.
func BenchmarkAskFlat40(b *testing.B) {
	tn := benchTuner(b, "sampling", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tn.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAskGrouped40 is the grouped engine's per-step cost on the
// same grid: eight 64-point sub-enumerations plus the composition and
// polish ranking — bounded by group size, not grid size.
func BenchmarkAskGrouped40(b *testing.B) {
	tn := benchTuner(b, "grouped", compile40.Groups)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tn.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// askTell40 runs one Ask(k) through the lease layer and tells every
// pick its compile40 value.
func askTell40(b *testing.B, at *core.AskTell, k int, now time.Time) {
	picks, err := at.Ask(k, time.Minute, now)
	if err != nil {
		b.Fatal(err)
	}
	if len(picks) != k {
		b.Fatalf("Ask(%d) returned %d picks", k, len(picks))
	}
	for _, c := range picks {
		if _, err := at.Tell(c, compile40.Evaluate(c)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAskTellFlat40 is BenchmarkAskFlat40 through AskTell: one
// Ask(1) plus its Tell, so each pick also pays the lease, its pending
// overlay row and its expiry entry, that Tuner.Step skips.
func BenchmarkAskTellFlat40(b *testing.B) {
	at := core.NewAskTell(benchTuner(b, "sampling", nil))
	now := time.Unix(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		askTell40(b, at, 1, now)
	}
}

// BenchmarkAskTellFlat40Batch4 is one Ask(4) plus its four Tells: every
// pick after the first draws against live leases and fits a
// fantasized surrogate around them.
func BenchmarkAskTellFlat40Batch4(b *testing.B) {
	at := core.NewAskTell(benchTuner(b, "sampling", nil))
	now := time.Unix(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		askTell40(b, at, 4, now)
	}
}
