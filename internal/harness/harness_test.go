package harness

import (
	"math"
	"testing"

	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/dataset"
	"github.com/hpcautotune/hiperbot/internal/geist"
	"github.com/hpcautotune/hiperbot/internal/space"
)

func gridTable(t *testing.T) *dataset.Table {
	t.Helper()
	sp := space.New(
		space.DiscreteInts("p", 0, 1, 2, 3, 4, 5, 6, 7),
		space.DiscreteInts("q", 0, 1, 2, 3, 4, 5, 6, 7),
		space.DiscreteInts("r", 0, 1, 2, 3),
	)
	configs := sp.Enumerate()
	values := make([]float64, len(configs))
	for i, c := range configs {
		dp, dq := c[0]-2, c[1]-5
		values[i] = dp*dp + dq*dq + 0.3*math.Abs(c[2]-1) + 1
	}
	return dataset.MustNew("grid3", "v", sp, configs, values)
}

func TestGoodSetRecall(t *testing.T) {
	tbl := gridTable(t)
	good := PercentileGoodSet(tbl, 0.1)
	if good.Size() == 0 {
		t.Fatal("empty good set")
	}
	h := core.NewHistory(tbl.Space)
	// Add all good configs: recall must be exactly 1.
	for idx := 0; idx < tbl.Len(); idx++ {
		if good.Contains(idx) {
			h.MustAdd(tbl.Config(idx), tbl.Value(idx))
		}
	}
	if r := good.Recall(tbl, h, h.Len()); r != 1 {
		t.Fatalf("recall = %v, want 1", r)
	}
	// Prefix of zero: recall 0.
	if r := good.Recall(tbl, h, 0); r != 0 {
		t.Fatalf("recall(0) = %v", r)
	}
}

func TestRecallMonotoneInPrefix(t *testing.T) {
	tbl := gridTable(t)
	good := PercentileGoodSet(tbl, 0.2)
	h, err := Random().Run(tbl, 50, 13)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for p := 1; p <= 50; p++ {
		r := good.Recall(tbl, h, p)
		if r < prev {
			t.Fatalf("recall decreased at prefix %d", p)
		}
		if r < 0 || r > 1 {
			t.Fatalf("recall %v outside [0,1]", r)
		}
		prev = r
	}
}

func TestToleranceGoodSet(t *testing.T) {
	tbl := gridTable(t)
	g0 := ToleranceGoodSet(tbl, 0)
	if g0.Size() < 1 {
		t.Fatal("zero-tolerance set must contain the optimum")
	}
	g20 := ToleranceGoodSet(tbl, 0.2)
	if g20.Size() < g0.Size() {
		t.Fatal("larger tolerance must not shrink the good set")
	}
}

func TestRunCurveShapesAndSanity(t *testing.T) {
	tbl := gridTable(t)
	spec := CurveSpec{
		Table:       tbl,
		Checkpoints: []int{20, 40, 80},
		Repetitions: 8,
		BaseSeed:    5,
	}
	curve, err := RunCurve(HiPerBOt(core.Options{InitialSamples: 10}), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.BestMean) != 3 || len(curve.RecallMean) != 3 {
		t.Fatalf("curve shape wrong: %+v", curve)
	}
	// Best-so-far must be non-increasing across checkpoints.
	for k := 1; k < 3; k++ {
		if curve.BestMean[k] > curve.BestMean[k-1]+1e-12 {
			t.Fatalf("best mean increased: %v", curve.BestMean)
		}
		if curve.RecallMean[k] < curve.RecallMean[k-1]-1e-12 {
			t.Fatalf("recall mean decreased: %v", curve.RecallMean)
		}
	}
	_, _, exhaustive := tbl.Best()
	if curve.BestMean[2] < exhaustive {
		t.Fatalf("best mean %v below exhaustive best %v", curve.BestMean[2], exhaustive)
	}
}

func TestHiPerBOtBeatsRandomOnCurve(t *testing.T) {
	tbl := gridTable(t)
	spec := CurveSpec{
		Table:       tbl,
		Checkpoints: []int{30, 60},
		Repetitions: 10,
		BaseSeed:    77,
	}
	curves, err := RunCurves([]Method{
		HiPerBOt(core.Options{InitialSamples: 10}),
		Random(),
	}, spec)
	if err != nil {
		t.Fatal(err)
	}
	hbot, rnd := curves[0], curves[1]
	if hbot.BestMean[1] > rnd.BestMean[1] {
		t.Fatalf("HiPerBOt best %v worse than random %v", hbot.BestMean[1], rnd.BestMean[1])
	}
	if hbot.RecallMean[1] <= rnd.RecallMean[1] {
		t.Fatalf("HiPerBOt recall %v not above random %v", hbot.RecallMean[1], rnd.RecallMean[1])
	}
}

func TestGEISTMethodRuns(t *testing.T) {
	tbl := gridTable(t)
	spec := CurveSpec{
		Table:       tbl,
		Checkpoints: []int{25, 50},
		Repetitions: 4,
		BaseSeed:    3,
	}
	curve, err := RunCurve(GEIST(geist.Options{InitialSamples: 10, BatchSize: 5}, false), spec)
	if err != nil {
		t.Fatal(err)
	}
	if curve.Method != "GEIST" {
		t.Fatalf("method name %q", curve.Method)
	}
	_, _, exhaustive := tbl.Best()
	if curve.BestMean[1] < exhaustive {
		t.Fatal("impossible best value")
	}
}

func TestRunCurveValidation(t *testing.T) {
	tbl := gridTable(t)
	cases := []CurveSpec{
		{Table: nil, Checkpoints: []int{5}},
		{Table: tbl, Checkpoints: nil},
		{Table: tbl, Checkpoints: []int{10, 5}},
		{Table: tbl, Checkpoints: []int{10, tbl.Len() + 1}},
	}
	for i, spec := range cases {
		spec.Repetitions = 2
		if _, err := RunCurve(Random(), spec); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestRunCurveDeterministic(t *testing.T) {
	tbl := gridTable(t)
	spec := CurveSpec{Table: tbl, Checkpoints: []int{20, 40}, Repetitions: 6, BaseSeed: 11}
	a, err := RunCurve(HiPerBOt(core.Options{InitialSamples: 10}), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCurve(HiPerBOt(core.Options{InitialSamples: 10}), spec)
	if err != nil {
		t.Fatal(err)
	}
	for k := range a.BestMean {
		if a.BestMean[k] != b.BestMean[k] || a.RecallMean[k] != b.RecallMean[k] {
			t.Fatal("RunCurve not deterministic despite parallel repetitions")
		}
	}
}

func TestMeanStd(t *testing.T) {
	m, s := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 {
		t.Fatalf("mean = %v", m)
	}
	if math.Abs(s-2.138) > 0.01 {
		t.Fatalf("std = %v", s)
	}
	if m, s := meanStd(nil); m != 0 || s != 0 {
		t.Fatal("empty meanStd wrong")
	}
}

func TestCurveConfidenceIntervals(t *testing.T) {
	tbl := gridTable(t)
	spec := CurveSpec{Table: tbl, Checkpoints: []int{20, 40}, Repetitions: 12, BaseSeed: 9}
	curve, err := RunCurve(Random(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.BestRaw) != 2 || len(curve.BestRaw[0]) != 12 {
		t.Fatalf("raw columns shape wrong: %d x %d", len(curve.BestRaw), len(curve.BestRaw[0]))
	}
	for k := 0; k < 2; k++ {
		lo, hi := curve.BestCI(k, 0.95)
		if lo > curve.BestMean[k] || hi < curve.BestMean[k] {
			t.Fatalf("checkpoint %d: mean %v outside CI [%v,%v]", k, curve.BestMean[k], lo, hi)
		}
		rlo, rhi := curve.RecallCI(k, 0.95)
		if rlo < 0 || rhi > 1 {
			t.Fatalf("recall CI [%v,%v] outside [0,1]", rlo, rhi)
		}
	}
}
