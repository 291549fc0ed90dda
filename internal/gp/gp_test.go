package gp

import (
	"math"
	"testing"

	"github.com/hpcautotune/hiperbot/internal/dataset"
	"github.com/hpcautotune/hiperbot/internal/space"
	"github.com/hpcautotune/hiperbot/internal/stats"
)

func TestFitInterpolatesTrainingPoints(t *testing.T) {
	xs := [][]float64{{0}, {0.5}, {1}}
	ys := []float64{1, 4, 2}
	g, err := Fit(xs, ys, Kernel{LengthScale: 0.3, Noise: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		mu, sd := g.Predict(x)
		if math.Abs(mu-ys[i]) > 0.05 {
			t.Errorf("Predict(train %d) = %v, want %v", i, mu, ys[i])
		}
		if sd > 0.2 {
			t.Errorf("train-point std = %v, want tiny", sd)
		}
	}
}

func TestPredictUncertaintyGrowsAwayFromData(t *testing.T) {
	g, err := Fit([][]float64{{0}, {0.1}}, []float64{1, 1.1}, Kernel{LengthScale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	_, sdNear := g.Predict([]float64{0.05})
	_, sdFar := g.Predict([]float64{3})
	if sdFar <= sdNear {
		t.Fatalf("sd far (%v) not above sd near (%v)", sdFar, sdNear)
	}
}

func TestExpectedImprovementProperties(t *testing.T) {
	g, err := Fit([][]float64{{0}, {1}}, []float64{5, 1}, Kernel{LengthScale: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	// EI is non-negative everywhere.
	for _, x := range []float64{-1, 0, 0.5, 1, 2} {
		if ei := g.ExpectedImprovement([]float64{x}, 1); ei < 0 {
			t.Fatalf("EI(%v) = %v < 0", x, ei)
		}
	}
	// EI near the known-bad region is below EI near the known-good one.
	eiBad := g.ExpectedImprovement([]float64{0}, 1)
	eiGood := g.ExpectedImprovement([]float64{1.2}, 1)
	if eiGood <= eiBad {
		t.Fatalf("EI near the good region (%v) not above the bad one (%v)", eiGood, eiBad)
	}
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(nil, nil, Kernel{}); err == nil {
		t.Error("empty fit accepted")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, Kernel{}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestFitConstantTargets(t *testing.T) {
	// Zero-variance targets must not divide by zero.
	g, err := Fit([][]float64{{0}, {1}, {2}}, []float64{3, 3, 3}, Kernel{})
	if err != nil {
		t.Fatal(err)
	}
	mu, _ := g.Predict([]float64{0.5})
	if math.Abs(mu-3) > 0.5 {
		t.Fatalf("constant-target prediction %v, want ~3", mu)
	}
}

func gridTable(t *testing.T) *dataset.Table {
	t.Helper()
	sp := space.New(
		space.DiscreteInts("p", 0, 1, 2, 3, 4, 5, 6, 7),
		space.DiscreteInts("q", 0, 1, 2, 3, 4, 5, 6, 7),
	)
	configs := sp.Enumerate()
	values := make([]float64, len(configs))
	for i, c := range configs {
		dp, dq := c[0]-2, c[1]-5
		values[i] = dp*dp + dq*dq + 1 + 0.05*stats.HashNorm(uint64(i), 3)
	}
	return dataset.MustNew("grid", "v", sp, configs, values)
}

func TestSelectFindsOptimum(t *testing.T) {
	tbl := gridTable(t)
	h, err := Select(tbl, 30, Options{InitialSamples: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 30 {
		t.Fatalf("history %d", h.Len())
	}
	_, _, best := tbl.Best()
	if h.Best().Value > best*1.2 {
		t.Fatalf("GP best %v far from exhaustive %v", h.Best().Value, best)
	}
}

func TestSelectBeatsRandomSampling(t *testing.T) {
	tbl := gridTable(t)
	_, _, exhaustive := tbl.Best()
	var gpSum, rndSum float64
	for seed := uint64(0); seed < 6; seed++ {
		h, err := Select(tbl, 25, Options{InitialSamples: 8, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		gpSum += h.Best().Value

		r := stats.NewRNG(seed + 100)
		best := math.Inf(1)
		for _, idx := range r.SampleWithoutReplacement(tbl.Len(), 25) {
			if v := tbl.Value(idx); v < best {
				best = v
			}
		}
		rndSum += best
	}
	if gpSum >= rndSum {
		t.Fatalf("GP (%v) not better than random (%v); exhaustive %v", gpSum, rndSum, exhaustive*6)
	}
}

func TestSelectDeterministic(t *testing.T) {
	tbl := gridTable(t)
	run := func() []float64 {
		h, err := Select(tbl, 20, Options{InitialSamples: 8, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return h.Values()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("GP runs diverged at %d", i)
		}
	}
}

func TestSelectValidation(t *testing.T) {
	tbl := gridTable(t)
	if _, err := Select(tbl, 5, Options{InitialSamples: 10}); err == nil {
		t.Error("budget below init accepted")
	}
	if _, err := Select(tbl, tbl.Len()+1, Options{}); err == nil {
		t.Error("budget beyond table accepted")
	}
	if _, err := Select(tbl, 10, Options{InitialSamples: 1}); err == nil {
		t.Error("init=1 accepted")
	}
}

func TestSelectRefitInterval(t *testing.T) {
	tbl := gridTable(t)
	h, err := Select(tbl, 30, Options{InitialSamples: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 30 {
		t.Fatalf("history %d", h.Len())
	}
}

func TestLogMarginalLikelihoodPrefersMatchingScale(t *testing.T) {
	// Smooth data generated with a long length scale: the LML must
	// prefer a long scale over a tiny one.
	var xs [][]float64
	var ys []float64
	for i := 0; i <= 20; i++ {
		x := float64(i) / 10
		xs = append(xs, []float64{x})
		ys = append(ys, math.Sin(x))
	}
	long, err := Fit(xs, ys, Kernel{LengthScale: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	short, err := Fit(xs, ys, Kernel{LengthScale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if long.LogMarginalLikelihood() <= short.LogMarginalLikelihood() {
		t.Fatalf("LML long %v not above short %v",
			long.LogMarginalLikelihood(), short.LogMarginalLikelihood())
	}
}

func TestFitWithModelSelection(t *testing.T) {
	var xs [][]float64
	var ys []float64
	for i := 0; i <= 15; i++ {
		x := float64(i) / 5
		xs = append(xs, []float64{x})
		ys = append(ys, x*x)
	}
	g, err := FitWithModelSelection(xs, ys, nil)
	if err != nil {
		t.Fatal(err)
	}
	mu, _ := g.Predict([]float64{1.5})
	if math.Abs(mu-2.25) > 0.3 {
		t.Fatalf("selected model predicts %v at 1.5, want ~2.25", mu)
	}
	if _, err := FitWithModelSelection(nil, nil, nil); err == nil {
		t.Fatal("empty data accepted")
	}
}
