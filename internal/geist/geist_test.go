package geist

import (
	"math"
	"testing"

	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/dataset"
	"github.com/hpcautotune/hiperbot/internal/space"
)

// gridTable builds an 8x8 grid dataset with optimum at (2,3).
func gridTable(t *testing.T) *dataset.Table {
	t.Helper()
	sp := space.New(
		space.DiscreteInts("p", 0, 1, 2, 3, 4, 5, 6, 7),
		space.DiscreteInts("q", 0, 1, 2, 3, 4, 5, 6, 7),
	)
	configs := sp.Enumerate()
	values := make([]float64, len(configs))
	for i, c := range configs {
		dp, dq := c[0]-2, c[1]-3
		values[i] = dp*dp + dq*dq + 1
	}
	return dataset.MustNew("grid", "v", sp, configs, values)
}

func TestBuildGraphStructure(t *testing.T) {
	tbl := gridTable(t)
	g := BuildGraph(tbl)
	if g.NumNodes() != 64 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Every node on an 8x8 Hamming-1 grid has (8-1)+(8-1)=14 neighbors.
	for i := 0; i < g.NumNodes(); i++ {
		if g.Degree(i) != 14 {
			t.Fatalf("node %d degree = %d, want 14", i, g.Degree(i))
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildGraphRespectsDropout(t *testing.T) {
	// Remove some rows: the graph must only connect existing rows.
	sp := space.New(space.DiscreteInts("p", 0, 1, 2, 3))
	configs := []space.Config{{0}, {1}, {3}} // {2} missing
	values := []float64{1, 2, 3}
	tbl := dataset.MustNew("gap", "v", sp, configs, values)
	g := BuildGraph(tbl)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// With Hamming-1 edges on a single categorical parameter every
	// present pair is connected: degree 2 each.
	for i := 0; i < 3; i++ {
		if g.Degree(i) != 2 {
			t.Fatalf("node %d degree = %d, want 2", i, g.Degree(i))
		}
	}
}

func TestCAMLPPropagatesLabels(t *testing.T) {
	tbl := gridTable(t)
	g := BuildGraph(tbl)
	// Label the optimum's node optimal and a far corner non-optimal.
	optIdx := tbl.IndexOf(space.Config{2, 3})
	badIdx := tbl.IndexOf(space.Config{7, 7})
	labels := map[int]bool{optIdx: true, badIdx: false}
	beliefs := DefaultCAMLP().Propagate(g, labels)
	if len(beliefs) != 64 {
		t.Fatalf("beliefs length %d", len(beliefs))
	}
	for i, b := range beliefs {
		if b < 0 || b > 1 || math.IsNaN(b) {
			t.Fatalf("belief[%d] = %v outside [0,1]", i, b)
		}
	}
	if beliefs[optIdx] <= beliefs[badIdx] {
		t.Fatal("labeled nodes lost their ordering")
	}
	// A neighbor of the optimal node must believe more in optimal than
	// a neighbor of the bad node (same relative position).
	nearOpt := tbl.IndexOf(space.Config{2, 4})
	nearBad := tbl.IndexOf(space.Config{7, 6})
	if beliefs[nearOpt] <= beliefs[nearBad] {
		t.Fatalf("propagation failed: near-opt %v <= near-bad %v", beliefs[nearOpt], beliefs[nearBad])
	}
}

func TestCAMLPUniformWithoutLabels(t *testing.T) {
	tbl := gridTable(t)
	g := BuildGraph(tbl)
	beliefs := DefaultCAMLP().Propagate(g, nil)
	for i, b := range beliefs {
		if math.Abs(b-0.5) > 1e-9 {
			t.Fatalf("belief[%d] = %v, want 0.5 with no labels", i, b)
		}
	}
}

func TestSamplerFindsGoodRegion(t *testing.T) {
	tbl := gridTable(t)
	g := BuildGraph(tbl)
	s, err := NewSampler(tbl, g, Options{InitialSamples: 8, BatchSize: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Run(32)
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 32 {
		t.Fatalf("history length %d", h.Len())
	}
	if h.Best().Value > 3 {
		t.Fatalf("GEIST best = %v, want near 1", h.Best().Value)
	}
}

func TestSamplerNoDuplicates(t *testing.T) {
	tbl := gridTable(t)
	s, err := NewSampler(tbl, nil, Options{InitialSamples: 5, BatchSize: 7, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Run(64) // whole space
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 64 {
		t.Fatalf("history has %d configs, want full space", h.Len())
	}
}

func TestSamplerDeterministic(t *testing.T) {
	tbl := gridTable(t)
	g := BuildGraph(tbl)
	run := func() []float64 {
		s, err := NewSampler(tbl, g, Options{InitialSamples: 6, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.Run(30)
		if err != nil {
			t.Fatal(err)
		}
		return h.Values()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("GEIST runs diverged at %d", i)
		}
	}
}

func TestSamplerValidation(t *testing.T) {
	tbl := gridTable(t)
	cases := map[string]Options{
		"init too small": {InitialSamples: 1},
		"bad quantile":   {Quantile: 1.5},
		"bad batch":      {BatchSize: -1},
		"bad explore":    {ExploreFrac: 2},
	}
	for name, opts := range cases {
		if _, err := NewSampler(tbl, nil, opts); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	s, err := NewSampler(tbl, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(10); err == nil {
		t.Error("budget below init accepted")
	}
	if _, err := s.Run(100); err == nil {
		t.Error("budget beyond space accepted")
	}
}

func TestSamplerBudgetExactlyInitial(t *testing.T) {
	tbl := gridTable(t)
	s, err := NewSampler(tbl, nil, Options{InitialSamples: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Run(12)
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 12 {
		t.Fatalf("got %d", h.Len())
	}
}

func TestWeightedGraph(t *testing.T) {
	tbl := gridTable(t) // ordinal params (DiscreteInts)
	g := BuildWeightedGraph(tbl)
	if !g.Weighted() {
		t.Fatal("graph not weighted")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Find the node (0,0) and check weights: neighbor (1,0) differs by
	// one ordinal step → weight 1; neighbor (7,0) by seven → 1/7.
	i := tbl.IndexOf(space.Config{0, 0})
	var w1, w7 float64
	for k, j := range g.Neighbors(i) {
		nb := tbl.Config(int(j))
		if nb.Equal(space.Config{1, 0}) {
			w1 = g.Weight(i, k)
		}
		if nb.Equal(space.Config{7, 0}) {
			w7 = g.Weight(i, k)
		}
	}
	if w1 != 1 {
		t.Fatalf("adjacent-level weight = %v, want 1", w1)
	}
	if w7 <= 0 || w7 >= 0.2 {
		t.Fatalf("distant-level weight = %v, want 1/7", w7)
	}
	// Unweighted graphs report weight 1 everywhere.
	ug := BuildGraph(tbl)
	if ug.Weighted() || ug.Weight(0, 0) != 1 {
		t.Fatal("unweighted graph misreports weights")
	}
}

func TestWeightedPropagationPrefersCloseNeighbors(t *testing.T) {
	tbl := gridTable(t)
	g := BuildWeightedGraph(tbl)
	optIdx := tbl.IndexOf(space.Config{2, 3})
	labels := map[int]bool{optIdx: true}
	beliefs := DefaultCAMLP().Propagate(g, labels)
	near := tbl.IndexOf(space.Config{3, 3}) // one ordinal step away
	far := tbl.IndexOf(space.Config{7, 3})  // five steps away (still a graph neighbor)
	if beliefs[near] <= beliefs[far] {
		t.Fatalf("weighted propagation: near %v <= far %v", beliefs[near], beliefs[far])
	}
}

func TestSamplerWorksOnWeightedGraph(t *testing.T) {
	tbl := gridTable(t)
	g := BuildWeightedGraph(tbl)
	s, err := NewSampler(tbl, g, Options{InitialSamples: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Run(32)
	if err != nil {
		t.Fatal(err)
	}
	if h.Best().Value > 3 {
		t.Fatalf("weighted GEIST best = %v", h.Best().Value)
	}
}

// TestFitSkipsUnchangedHistory checks that a fit on an unchanged
// history propagates nothing: two Tuner.Importance calls (each fits the
// model) with no observation between them keep the same beliefs slice,
// and a call after the next evaluation propagates anew.
func TestFitSkipsUnchangedHistory(t *testing.T) {
	tbl := gridTable(t)
	tn, err := core.NewTuner(tbl.Space, func(c space.Config) float64 {
		dp, dq := c[0]-2, c[1]-3
		return dp*dp + dq*dq + 1
	}, core.Options{Engine: "geist", InitialSamples: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Run(12); err != nil {
		t.Fatal(err)
	}
	m := tn.Model().(*camlpModel)
	if _, err := tn.Importance(); err != nil {
		t.Fatal(err)
	}
	first := m.beliefs
	if _, err := tn.Importance(); err != nil {
		t.Fatal(err)
	}
	if &m.beliefs[0] != &first[0] {
		t.Fatal("Importance on an unchanged history propagated the beliefs again")
	}
	if _, err := tn.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Importance(); err != nil {
		t.Fatal(err)
	}
	if &m.beliefs[0] == &first[0] {
		t.Fatal("Importance after an evaluation kept the old beliefs")
	}
}
