package core

import (
	"reflect"
	"strings"
	"testing"

	"github.com/hpcautotune/hiperbot/internal/space"
	"github.com/hpcautotune/hiperbot/internal/stats"
)

// groupedTestSpace is an 8-parameter space with two-parameter group
// structure: within each pair the objective couples the values, across
// pairs it is additive.
func groupedTestSpace() *space.Space {
	params := make([]space.Param, 8)
	for i := range params {
		params[i] = space.DiscreteInts(string(rune('a'+i)), 0, 1, 2, 3)
	}
	return space.New(params...)
}

// groupedTestObjective is additive over the pairs (a,b), (c,d), (e,f),
// (g,h), with a within-pair coupling: the pair is only cheap when both
// members sit at their joint optimum.
func groupedTestObjective(c space.Config) float64 {
	v := 0.0
	for p := 0; p < 8; p += 2 {
		x, y := c[p], c[p+1]
		v += (x - 2) * (x - 2)
		v += (y - 1) * (y - 1)
		if x == 2 && y != 1 {
			v += 3 // coupling: a half-right pair is worse than additive
		}
	}
	return v
}

func pairGroups() [][]string {
	return [][]string{{"a", "b"}, {"c", "d"}, {"e", "f"}, {"g", "h"}}
}

func runKeys(t *testing.T, sp *space.Space, obj func(space.Config) float64, opts Options, budget int) ([]string, []float64) {
	t.Helper()
	return runBatchKeys(t, sp, obj, opts, budget, 1)
}

// runBatchKeys is runKeys with k candidates per model update after the
// initial samples (k = 1 runs the serial Step loop).
func runBatchKeys(t *testing.T, sp *space.Space, obj func(space.Config) float64, opts Options, budget, k int) ([]string, []float64) {
	t.Helper()
	tn, err := NewTuner(sp, obj, opts)
	if err != nil {
		t.Fatal(err)
	}
	if k > 1 {
		_, err = tn.RunBatched(budget, k)
	} else {
		_, err = tn.Run(budget)
	}
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, budget)
	vals := make([]float64, 0, budget)
	for _, o := range tn.History().Observations() {
		keys = append(keys, sp.Key(o.Config))
		vals = append(vals, o.Value)
	}
	return keys, vals
}

// A single group naming every parameter is definitionally the flat
// joint: the grouped engine must reproduce the sampling engine's
// selection sequence bit for bit, regardless of the order the names
// are spelled in.
func TestGroupedSingleGroupMatchesSampling(t *testing.T) {
	all := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	shuffled := []string{"h", "c", "a", "f", "b", "g", "d", "e"}
	for seed := uint64(1); seed <= 5; seed++ {
		flatK, flatV := runKeys(t, largeTestSpace(), largeTestObjective,
			Options{Seed: seed, InitialSamples: 8, Engine: "sampling"}, 60)
		for _, names := range [][]string{all, shuffled} {
			gK, gV := runKeys(t, largeTestSpace(), largeTestObjective,
				Options{Seed: seed, InitialSamples: 8, Engine: "grouped", Groups: [][]string{names}}, 60)
			if !reflect.DeepEqual(flatK, gK) {
				t.Fatalf("seed %d groups %v: key sequences differ\nflat:    %v\ngrouped: %v",
					seed, names, flatK, gK)
			}
			if !reflect.DeepEqual(flatV, gV) {
				t.Fatalf("seed %d groups %v: value sequences differ", seed, names)
			}
		}
	}
}

// The grouped engine is deterministic for a fixed seed, for both
// user-supplied and auto-proposed groupings.
func TestGroupedIsDeterministic(t *testing.T) {
	for _, groups := range [][][]string{pairGroups(), nil} {
		aK, _ := runKeys(t, groupedTestSpace(), groupedTestObjective,
			Options{Seed: 9, InitialSamples: 10, Engine: "grouped", Groups: groups}, 50)
		bK, _ := runKeys(t, groupedTestSpace(), groupedTestObjective,
			Options{Seed: 9, InitialSamples: 10, Engine: "grouped", Groups: groups}, 50)
		if !reflect.DeepEqual(aK, bK) {
			t.Fatalf("groups %v: two identical runs diverged\n%v\n%v", groups, aK, bK)
		}
	}
}

// Auto-grouping always yields a partition of the dimensions, and the
// resolved grouping is identical across identical runs.
func TestGroupedAutoGroupsPartition(t *testing.T) {
	resolve := func() [][]string {
		tn, err := NewTuner(groupedTestSpace(), groupedTestObjective,
			Options{Seed: 4, InitialSamples: 12, Engine: "grouped"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tn.Run(30); err != nil {
			t.Fatal(err)
		}
		m, ok := tn.model.(*GroupedModel)
		if !ok {
			t.Fatalf("model is %T, want *GroupedModel", tn.model)
		}
		return m.Groups()
	}
	groups := resolve()
	if groups == nil {
		t.Fatal("auto grouping left Groups nil after fitting")
	}
	seen := make(map[string]bool)
	for _, g := range groups {
		for _, name := range g {
			if seen[name] {
				t.Fatalf("parameter %q in two groups: %v", name, groups)
			}
			seen[name] = true
		}
	}
	if len(seen) != 8 {
		t.Fatalf("partition covers %d of 8 parameters: %v", len(seen), groups)
	}
	if again := resolve(); !reflect.DeepEqual(groups, again) {
		t.Fatalf("auto grouping not deterministic: %v vs %v", groups, again)
	}
}

func TestResolveGroupsErrors(t *testing.T) {
	sp := groupedTestSpace()
	cases := []struct {
		groups [][]string
		want   string
	}{
		{[][]string{{"a", "nosuch"}}, "unknown parameter"},
		{[][]string{{"a", "b"}, {"b", "c"}}, "more than once"},
		{[][]string{{"a", "a"}}, "more than once"},
		{[][]string{{" ", ""}}, "no parameters"},
	}
	for _, tc := range cases {
		if err := ValidateGroups(sp, tc.groups); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("groups %v: error %v, want containing %q", tc.groups, err, tc.want)
		}
		if _, err := NewTuner(sp, groupedTestObjective,
			Options{Seed: 1, Engine: "grouped", Groups: tc.groups}); err == nil {
			t.Fatalf("NewTuner accepted bad groups %v", tc.groups)
		}
	}
	if err := ValidateGroups(sp, nil); err != nil {
		t.Fatalf("nil groups (auto) rejected: %v", err)
	}
}

// A partial spec is completed with singleton groups for the
// unmentioned parameters, in declaration order.
func TestResolveGroupsSingletonCompletion(t *testing.T) {
	sp := groupedTestSpace()
	groups, err := resolveGroups(sp, [][]string{{"c", "a"}})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 2}, {1}, {3}, {4}, {5}, {6}, {7}}
	if !reflect.DeepEqual(groups, want) {
		t.Fatalf("resolved %v, want %v", groups, want)
	}
}

func TestParseGroups(t *testing.T) {
	cases := []struct {
		in   string
		want [][]string
	}{
		{"", nil},
		{" ; , ", nil},
		{"a,b;c", [][]string{{"a", "b"}, {"c"}}},
		{" a , b ; c,d,e ", [][]string{{"a", "b"}, {"c", "d", "e"}}},
	}
	for _, tc := range cases {
		if got := ParseGroups(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("ParseGroups(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// FuzzParseGroups checks the -groups CLI spelling on arbitrary input:
// no panic, no empty group, no empty or untrimmed name, and the groups
// re-joined with ',' and ';' parse back to themselves.
func FuzzParseGroups(f *testing.F) {
	for _, s := range []string{"", " ; , ", "a,b;c", " a , b ; c,d,e ", ";;a;;", "a\t,\nb", "x,,y;;;z ,", " a ;\x85", "\xff,\xfe;b"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		groups := ParseGroups(s)
		joined := make([]string, len(groups))
		for i, g := range groups {
			if len(g) == 0 {
				t.Fatalf("ParseGroups(%q) has an empty group: %q", s, groups)
			}
			for _, name := range g {
				if name == "" || name != strings.TrimSpace(name) {
					t.Fatalf("ParseGroups(%q) has name %q", s, name)
				}
			}
			joined[i] = strings.Join(g, ",")
		}
		if back := ParseGroups(strings.Join(joined, ";")); !reflect.DeepEqual(back, groups) {
			t.Fatalf("ParseGroups(%q) = %q, re-joined parses to %q", s, groups, back)
		}
	})
}

// The grouped engine needs a fully discrete space: per-subspace
// enumeration has no meaning over a continuum.
func TestGroupedRejectsContinuousSpace(t *testing.T) {
	sp := space.New(
		space.DiscreteInts("a", 0, 1),
		space.Continuous("x", 0, 1),
	)
	if _, err := NewGroupedModel(sp, Options{}); err == nil {
		t.Fatal("NewGroupedModel accepted a continuous space")
	}
}

// Golden sequence: pins the grouped engine's exact selection order on
// the pair-structured space so refactors of the composition/polish
// path stay bit-identical. Regenerate by running with -update-grouped
// semantics: flip the boolean below and copy the logged literal.
func TestGroupedGoldenSequence(t *testing.T) {
	keys, _ := runKeys(t, groupedTestSpace(), groupedTestObjective,
		Options{Seed: 42, InitialSamples: 6, Engine: "grouped", Groups: pairGroups()}, 18)
	const print = false
	if print {
		t.Fatalf("golden literal:\n%#v", keys)
	}
	want := []string{
		"0|1|2|3|3|3|2|3", "3|2|2|1|3|1|2|3", "2|3|2|2|0|0|1|2",
		"1|1|1|3|2|0|1|2", "3|3|3|2|3|0|1|3", "2|2|3|3|3|0|2|2",
		"1|1|1|1|2|1|1|2", "1|1|1|1|2|1|0|0", "1|0|1|1|2|1|0|0",
		"1|1|1|1|2|1|0|1", "1|1|0|0|2|1|0|1", "1|1|1|1|1|1|0|0",
		"1|1|1|1|2|1|3|1", "1|1|1|1|2|2|3|1", "0|1|1|1|2|1|3|1",
		"0|0|1|1|2|1|3|1", "1|1|0|1|2|1|3|1", "1|1|0|0|2|1|3|1",
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("grouped selection sequence drifted\ngot:  %#v\nwant: %#v", keys, want)
	}
}

// Frozen grouped selection sequence at k = 4: every batch runs the
// shared score-and-pick tail's top-k path.
func TestGroupedBatchGoldenSequence(t *testing.T) {
	keys, _ := runBatchKeys(t, groupedTestSpace(), groupedTestObjective,
		Options{Seed: 42, InitialSamples: 6, Engine: "grouped", Groups: pairGroups()}, 22, 4)
	const print = false
	if print {
		t.Fatalf("golden literal:\n%#v", keys)
	}
	want := []string{
		"0|1|2|3|3|3|2|3", "3|2|2|1|3|1|2|3", "2|3|2|2|0|0|1|2",
		"1|1|1|3|2|0|1|2", "3|3|3|2|3|0|1|3", "2|2|3|3|3|0|2|2",
		"1|1|1|1|2|1|1|2", "1|1|1|1|2|0|0|0", "1|1|1|1|2|0|0|1",
		"1|1|1|1|2|0|3|0", "1|1|1|1|2|1|3|0", "2|1|0|1|1|2|3|0",
		"1|1|1|0|2|1|3|2", "1|3|0|0|0|1|3|0", "1|0|1|1|2|1|3|2",
		"1|1|1|0|2|1|1|2", "0|0|1|1|2|1|3|2", "1|0|1|1|2|1|1|2",
		"1|1|1|1|2|1|3|2", "0|0|1|1|2|1|1|2", "3|0|1|1|2|1|1|2",
		"1|1|0|0|2|1|1|2",
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("grouped k=4 selection sequence drifted\ngot:  %#v\nwant: %#v", keys, want)
	}
}

// The exhausted-retries signal: a pool cap larger than the valid grid
// forces the rejection loop to its retry bound, which must be
// reported, not silent — while the short pool itself is still
// returned.
func TestSampledPoolExhaustedRetries(t *testing.T) {
	sp := space.New(
		space.DiscreteInts("a", 0, 1),
		space.DiscreteInts("b", 0, 1),
		space.DiscreteInts("c", 0, 1),
	)
	p, short, err := sampledPool(sp, 16, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Size(); got != 8 {
		t.Fatalf("pool size = %d, want the full 8-point grid", got)
	}
	if !short {
		t.Fatal("a cap past the valid grid was not reported short")
	}
	// A cap the grid can satisfy is never short.
	if _, short, err := sampledPool(sp, 4, stats.NewRNG(3)); err != nil || short {
		t.Fatalf("satisfiable cap: short = %v, err = %v", short, err)
	}
}
