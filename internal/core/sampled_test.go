package core

import (
	"reflect"
	"strings"
	"testing"

	"github.com/hpcautotune/hiperbot/internal/space"
	"github.com/hpcautotune/hiperbot/internal/stats"
)

// largeTestSpace is a ~4.3e9-point constrained grid (16^8, constraint
// keeps half) — far past DefaultEnumerateLimit, cheap to evaluate.
func largeTestSpace() *space.Space {
	params := make([]space.Param, 8)
	for i := range params {
		levels := make([]int, 16)
		for l := range levels {
			levels[l] = l
		}
		params[i] = space.DiscreteInts(string(rune('a'+i)), levels...)
	}
	sp := space.New(params...)
	return sp.WithConstraint(func(c space.Config) bool {
		return (int(c[0])+int(c[1]))%2 == 0
	})
}

func largeTestObjective(c space.Config) float64 {
	v := 0.0
	for i, x := range c {
		v += x * float64(i+1)
	}
	return v
}

func TestLargeSpaceDefaultsToSamplingEngine(t *testing.T) {
	tn, err := NewTuner(largeTestSpace(), largeTestObjective, Options{Seed: 1, InitialSamples: 5})
	if err != nil {
		t.Fatal(err)
	}
	if tn.EngineName() != "sampling" {
		t.Fatalf("engine = %q, want sampling", tn.EngineName())
	}
	if tn.SampledPoolSize() != 0 {
		t.Fatalf("sampling engine built a pool of %d", tn.SampledPoolSize())
	}
	best, err := tn.Run(30)
	if err != nil {
		t.Fatal(err)
	}
	if tn.Evaluations() != 30 {
		t.Fatalf("evaluations = %d, want 30", tn.Evaluations())
	}
	if !tn.sp.Valid(best.Config) {
		t.Fatalf("best config invalid: %v", best.Config)
	}
}

func TestLargeSpaceSamplingIsDeterministic(t *testing.T) {
	run := func() []string {
		tn, err := NewTuner(largeTestSpace(), largeTestObjective, Options{Seed: 7, InitialSamples: 5})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tn.Run(25); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, 25)
		for _, o := range tn.History().Observations() {
			keys = append(keys, tn.sp.Key(o.Config))
		}
		return keys
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d differs: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestLargeSpacePoolRequiredGetsSampledPool(t *testing.T) {
	tn, err := NewTuner(largeTestSpace(), largeTestObjective, Options{
		Seed: 1, InitialSamples: 5, Engine: "ranking", PoolCap: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tn.EngineName() != "ranking" {
		t.Fatalf("engine = %q, want ranking", tn.EngineName())
	}
	if got := tn.SampledPoolSize(); got != 128 {
		t.Fatalf("sampled pool size = %d, want 128", got)
	}
	for i := 0; i < tn.pool.Size(); i++ {
		if c := tn.pool.Candidate(i); !tn.sp.Valid(c) {
			t.Fatalf("sampled candidate invalid: %v", c)
		}
	}
	if _, err := tn.Run(20); err != nil {
		t.Fatal(err)
	}
}

func TestLargeSpaceDisabledIsCleanError(t *testing.T) {
	_, err := NewTuner(largeTestSpace(), largeTestObjective, Options{
		Seed: 1, Engine: "ranking", PoolCap: -1,
	})
	if err == nil {
		t.Fatal("expected an error with PoolCap < 0 on an oversized grid")
	}
	if !strings.Contains(err.Error(), "PoolCap") {
		t.Fatalf("error does not mention the fix: %v", err)
	}
}

func TestSmallSpaceRoutingUnchanged(t *testing.T) {
	sp := space.New(
		space.DiscreteInts("a", 0, 1, 2),
		space.DiscreteInts("b", 0, 1, 2, 3),
	)
	tn, err := NewTuner(sp, largeTestObjective, Options{Seed: 1, InitialSamples: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tn.EngineName() != "ranking" || tn.SampledPoolSize() != 0 {
		t.Fatalf("small space: engine %q, sampled pool %d; want ranking with enumerated pool",
			tn.EngineName(), tn.SampledPoolSize())
	}
	if tn.pool == nil || tn.pool.Size() != sp.GridSize() {
		t.Fatal("small space did not enumerate the full grid")
	}
}

func TestSampledPoolDistinctAndBounded(t *testing.T) {
	sp := largeTestSpace()
	p, short, err := sampledPool(sp, 512, stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	if short || p.Size() != 512 {
		t.Fatalf("pool size = %d, want 512", p.Size())
	}
	seen := make(map[string]bool, p.Size())
	for i := 0; i < p.Size(); i++ {
		c := p.Candidate(i)
		if !sp.Valid(c) {
			t.Fatalf("invalid candidate %v", c)
		}
		key := sp.Key(c)
		if seen[key] {
			t.Fatalf("duplicate candidate %v", c)
		}
		seen[key] = true
	}
}

// randGridIndex must stay inside the grid and hit both halves of a
// two-point grid (a smoke test of the rejection step).
func TestRandGridIndex(t *testing.T) {
	r := stats.NewRNG(5)
	counts := [2]int{}
	for i := 0; i < 1000; i++ {
		idx := randGridIndex(r, 2, true)
		if idx > 1 {
			t.Fatalf("index %d outside [0,2)", idx)
		}
		counts[idx]++
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("degenerate distribution: %v", counts)
	}
}

// BenchmarkSampledSelect measures one warm model-guided step of the
// pool-free sampling engine on a ~4.3e9-point grid: incremental fit +
// CandidateSamples pg-draws + one columnar ScoreBatch. This is the
// per-iteration cost that replaces enumerating the grid.
func BenchmarkSampledSelect(b *testing.B) {
	tn, err := NewTuner(largeTestSpace(), largeTestObjective, Options{Seed: 1, InitialSamples: 10})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tn.Run(20); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tn.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// Frozen sampling-engine selection sequences. The first runs at k = 1
// on the 8×4-level pair space (argmax path); the second on a 27-point
// grid with 2 draws per step to exhaustion, so most picks come from
// the uniform-exploration fallback.
func TestSamplingGoldenSequence(t *testing.T) {
	keys, _ := runKeys(t, groupedTestSpace(), groupedTestObjective,
		Options{Seed: 42, InitialSamples: 6, Engine: "sampling"}, 18)
	tiny := space.New(
		space.DiscreteInts("a", 0, 1, 2),
		space.DiscreteInts("b", 0, 1, 2),
		space.DiscreteInts("c", 0, 1, 2),
	)
	tinyKeys, _ := runKeys(t, tiny, largeTestObjective,
		Options{Seed: 3, InitialSamples: 4, Engine: "sampling", CandidateSamples: 2}, 27)
	const print = false
	if print {
		t.Fatalf("golden literals:\n%#v\n%#v", keys, tinyKeys)
	}
	want := []string{
		"0|1|2|3|3|3|2|3", "3|2|2|1|3|1|2|3", "2|3|2|2|0|0|1|2",
		"1|1|1|3|2|0|1|2", "3|3|3|2|3|0|1|3", "2|2|3|3|3|0|2|2",
		"1|1|1|1|2|1|3|0", "3|2|1|1|1|1|3|0", "1|2|1|1|1|1|3|0",
		"1|0|1|1|1|1|3|0", "3|0|1|1|1|1|3|0", "1|0|1|1|1|2|3|0",
		"1|0|0|1|1|1|3|0", "1|0|1|0|1|1|3|0", "3|2|1|1|2|1|3|0",
		"1|2|1|1|2|1|3|0", "3|2|1|1|2|1|3|1", "1|2|1|1|2|1|0|1",
	}
	wantTiny := []string{
		"2|1|0", "1|1|1", "0|2|2",
		"1|2|2", "2|1|1", "2|2|1",
		"2|0|1", "1|0|1", "1|1|0",
		"1|0|2", "1|1|2", "2|2|2",
		"1|0|0", "2|1|2", "1|2|1",
		"0|1|0", "0|1|1", "0|0|1",
		"0|0|2", "2|0|2", "0|0|0",
		"2|2|0", "0|1|2", "1|2|0",
		"0|2|0", "0|2|1", "2|0|0",
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("sampling k=1 selection sequence drifted\ngot:  %#v\nwant: %#v", keys, want)
	}
	if !reflect.DeepEqual(tinyKeys, wantTiny) {
		t.Fatalf("sampling fallback sequence drifted\ngot:  %#v\nwant: %#v", tinyKeys, wantTiny)
	}
}

// Frozen sampling-engine selection sequence at k = 4 (top-k path).
func TestSamplingBatchGoldenSequence(t *testing.T) {
	keys, _ := runBatchKeys(t, groupedTestSpace(), groupedTestObjective,
		Options{Seed: 42, InitialSamples: 6, Engine: "sampling"}, 22, 4)
	const print = false
	if print {
		t.Fatalf("golden literal:\n%#v", keys)
	}
	want := []string{
		"0|1|2|3|3|3|2|3", "3|2|2|1|3|1|2|3", "2|3|2|2|0|0|1|2",
		"1|1|1|3|2|0|1|2", "3|3|3|2|3|0|1|3", "2|2|3|3|3|0|2|2",
		"1|1|1|1|2|1|3|0", "1|2|1|1|2|1|3|0", "1|1|1|1|2|1|1|1",
		"1|2|1|1|2|1|0|2", "1|0|0|0|2|1|3|1", "1|1|0|0|2|1|3|1",
		"1|1|0|1|2|2|3|1", "1|1|0|0|1|2|3|0", "1|0|1|1|2|1|3|0",
		"0|1|1|1|2|1|3|0", "0|2|1|1|2|1|3|0", "1|2|1|1|2|1|1|0",
		"1|0|1|1|2|1|1|0", "1|0|1|1|2|1|0|0", "1|0|1|1|0|1|1|0",
		"1|0|1|1|1|1|1|0",
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("sampling k=4 selection sequence drifted\ngot:  %#v\nwant: %#v", keys, want)
	}
}

// Frozen Proposal selection sequence at k = 4 on a mixed space,
// recorded while Proposal still had an acquirer of its own: on
// continuous draws no two candidates tie, so running Proposal through
// the sampling acquirer at 100 draws keeps every batch.
func TestProposalBatchGoldenSequence(t *testing.T) {
	keys, _ := runBatchKeys(t, leaseTestMixedSpace(), leaseTestValue,
		Options{Seed: 3, InitialSamples: 10, Engine: Proposal}, 34, 4)
	want := []string{
		"3|2.5623240269418428|0|1.6018848795013612", "2|1.5980321158519004|0|2.1467240239165299",
		"4|0.78041464833462548|3|2.0396286357300513", "3|3.0180304133983169|2|0.33101957877398025",
		"0|0.46026121506656104|3|2.1255204818883766", "3|2.045338174620829|2|0.16512198698030889",
		"4|3.9229195809468398|2|2.7203823350271019", "0|1.8826047394776086|0|2.567231587369367",
		"3|0.85222891679366741|3|2.6129159849164827", "2|2.3222584558623258|1|1.0433217463672233",
		"3|0.81803828272908508|3|0", "1|0.96779733459619477|3|0",
		"3|0.65198561135220678|3|0", "3|0.97725338456127364|3|0",
		"3|0.78732255104914262|3|0", "3|0.77922802751861497|3|0",
		"3|0.80577073363562057|3|0", "3|0.77477661270764298|3|0",
		"3|0.80215086401722724|3|0", "3|0.79672057750962666|3|0",
		"3|0.79567803032412143|3|0", "3|0.79448949492900878|3|0",
		"3|0.80784768112652006|3|3.8432645911120272e-05", "3|0.8092141046672281|3|0",
		"3|0.80141270438796741|3|0", "3|0.8012123284162902|3|0",
		"3|0.80784085798655447|3|0", "3|0.80988601159353102|3|0",
		"3|0.81004284382282221|3|2.4636153359646604e-07", "1|0.80677005205762309|3|0",
		"3|0.79783396417863239|1|0", "3|0.82617913234371576|1|1.8583648594129655e-08",
		"3|0.8366564770527376|1|0", "3|0.83814509876889631|1|1.3474005680158054e-08",
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("proposal k=4 selection sequence drifted\ngot:  %#v\nwant: %#v", keys, want)
	}
}

// Frozen Proposal selection sequence at k = 4 on a discrete space,
// where candidates tie: a batch keeps the earliest drawn of equally
// scored candidates. In the second batch four candidates tie at
// 2.330795 for the last two slots. Before Proposal shared the
// sampling acquirer it kept 3|0|2|0 and 3|3|2|1 there (an unstable
// sort's order); now it keeps 3|2|2|0 and 3|0|2|1.
func TestProposalBatchTieGoldenSequence(t *testing.T) {
	keys, _ := runBatchKeys(t, leaseTestSpace(), leaseTestValue,
		Options{Seed: 1, Engine: Proposal}, 32, 4)
	want := []string{
		"3|2|2|1", "3|0|0|1", "4|2|3|3", "4|3|2|3", "0|2|0|0", "2|2|2|1", "2|1|1|3", "3|4|0|3",
		"2|1|2|0", "1|4|1|1", "0|0|1|2", "1|2|2|2", "4|2|0|2", "4|4|3|0", "3|1|2|3", "3|3|1|3",
		"2|4|2|3", "2|4|0|2", "2|1|0|3", "1|4|3|2", "2|1|2|1", "3|1|2|1", "3|1|2|0", "2|1|2|3",
		"0|1|2|1", "0|1|2|0", "3|2|2|0", "3|0|2|1", "3|0|2|0", "3|3|2|1", "3|3|2|0", "3|1|3|1",
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("proposal k=4 selection sequence drifted\ngot:  %#v\nwant: %#v", keys, want)
	}
}
