package harness

import (
	"math"
	"testing"

	"github.com/hpcautotune/hiperbot/internal/core"
)

func TestEvaluationsToTargetBasics(t *testing.T) {
	tbl := gridTable(t)
	spec := TargetSpec{
		Table: tbl, Tolerance: 0, MaxBudget: tbl.Len(),
		Repetitions: 8, BaseSeed: 3,
	}
	res, err := EvaluationsToTarget(HiPerBOt(core.Options{InitialSamples: 10}), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached != 8 {
		t.Fatalf("reached %d/8 with a full budget", res.Reached)
	}
	if res.Mean < 1 || res.Mean > float64(tbl.Len()) {
		t.Fatalf("mean %v out of range", res.Mean)
	}
	if res.Median < 1 {
		t.Fatalf("median %v", res.Median)
	}
}

// The paper's headline: HiPerBOt reaches the best with clearly fewer
// evaluations than Random.
func TestHiPerBOtNeedsFewerEvaluationsThanRandom(t *testing.T) {
	tbl := gridTable(t)
	spec := TargetSpec{
		Table: tbl, Tolerance: 0.05, MaxBudget: tbl.Len(),
		Repetitions: 10, BaseSeed: 17,
	}
	hb, err := EvaluationsToTarget(HiPerBOt(core.Options{InitialSamples: 10}), spec)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := EvaluationsToTarget(Random(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if hb.Mean >= rnd.Mean {
		t.Fatalf("HiPerBOt mean %v not below Random %v", hb.Mean, rnd.Mean)
	}
	tstat, df := WelchT(rnd.Mean, rnd.Std, rnd.Repetitions, hb.Mean, hb.Std, hb.Repetitions)
	if tstat < 0 {
		t.Fatalf("t statistic %v has the wrong sign", tstat)
	}
	_ = df
}

func TestEvaluationsToTargetCensoring(t *testing.T) {
	tbl := gridTable(t)
	// Impossible target within a tiny budget: all runs censored.
	spec := TargetSpec{Table: tbl, Tolerance: 0, MaxBudget: 3, Repetitions: 4, BaseSeed: 1}
	res, err := EvaluationsToTarget(Random(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached > 2 {
		t.Fatalf("reached %d/4 with budget 3 on a %d-config space", res.Reached, tbl.Len())
	}
	// Censored runs enter as MaxBudget+1.
	if res.Mean > float64(spec.MaxBudget+1) {
		t.Fatalf("mean %v above censoring bound", res.Mean)
	}
}

func TestEvaluationsToTargetValidation(t *testing.T) {
	tbl := gridTable(t)
	bad := []TargetSpec{
		{Table: nil, MaxBudget: 5},
		{Table: tbl, Tolerance: -1, MaxBudget: 5},
		{Table: tbl, MaxBudget: 0},
		{Table: tbl, MaxBudget: tbl.Len() + 1},
	}
	for i, spec := range bad {
		spec.Repetitions = 2
		if _, err := EvaluationsToTarget(Random(), spec); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestWelchT(t *testing.T) {
	// Clearly separated samples → large |t|.
	tstat, df := WelchT(100, 5, 30, 50, 5, 30)
	if tstat < 10 {
		t.Fatalf("t = %v, want large", tstat)
	}
	if df < 10 {
		t.Fatalf("df = %v", df)
	}
	// Identical samples → t = 0.
	if tstat, _ := WelchT(5, 1, 10, 5, 1, 10); tstat != 0 {
		t.Fatalf("t = %v for identical stats", tstat)
	}
	// Degenerate: zero variance, different means → infinite t.
	if tstat, _ := WelchT(5, 0, 10, 4, 0, 10); !math.IsInf(tstat, 1) {
		t.Fatalf("t = %v, want +Inf", tstat)
	}
	// Too-small samples → 0, 0.
	if tstat, df := WelchT(1, 1, 1, 2, 1, 5); tstat != 0 || df != 0 {
		t.Fatal("small-n guard failed")
	}
}

func TestMedian(t *testing.T) {
	if median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median wrong")
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Fatal("even median wrong")
	}
}
