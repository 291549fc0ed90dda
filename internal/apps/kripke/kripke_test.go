package kripke

import (
	"math"
	"testing"

	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/space"
)

func TestExecSpaceConstraints(t *testing.T) {
	sp := Exec().Space()
	for _, c := range Exec().Table().Values() {
		if c <= 0 {
			t.Fatal("non-positive execution time")
		}
	}
	for i := 0; i < Exec().Table().Len(); i++ {
		cfg := Exec().Table().Config(i)
		omp := sp.Param(iOMP).NumericValue(int(cfg[iOMP]))
		ranks := sp.Param(iRanks).NumericValue(int(cfg[iRanks]))
		cores := omp * ranks
		if cores < 4 || cores > 128 {
			t.Fatalf("config %v has %v cores outside [4,128]", cfg, cores)
		}
	}
}

func TestExecBestUsesGoodMarginals(t *testing.T) {
	tbl := Exec().Table()
	_, cfg, _ := tbl.Best()
	sp := tbl.Space
	if sp.Param(iNest).Level(int(cfg[iNest])) != "GDZ" {
		t.Errorf("best nesting = %s, want GDZ", sp.Param(iNest).Level(int(cfg[iNest])))
	}
	ranks := sp.Param(iRanks).NumericValue(int(cfg[iRanks]))
	if ranks != 16 && ranks != 8 && ranks != 32 {
		t.Errorf("best ranks = %v, want near the 16-rank sweet spot", ranks)
	}
}

func TestTimePenaltyStructure(t *testing.T) {
	sp := Exec().Space()
	base := space.Config{2, 2, 1, 3, 4} // GDZ, gset 4, dset 16, omp 8, ranks 16
	basePen := timePenalty(sp, base, 0)
	if basePen > 0.01 {
		t.Fatalf("sweet-spot penalty = %v, want ~0", basePen)
	}
	// Each single deviation must increase the penalty.
	worse := []space.Config{
		{5, 2, 1, 3, 4}, // ZGD nesting
		{2, 0, 1, 3, 4}, // gset 1
		{2, 2, 3, 3, 4}, // dset 64
		{2, 2, 1, 0, 4}, // omp 1
		{2, 2, 1, 3, 0}, // ranks 1
	}
	for _, w := range worse {
		if p := timePenalty(sp, w, 0); p <= basePen {
			t.Errorf("deviation %v penalty %v not above base %v", w, p, basePen)
		}
	}
}

func TestNoiseIsRuggedButBounded(t *testing.T) {
	sp := Exec().Space()
	// Two configs differing only in an irrelevant-ish dim still get
	// different noise, and noise stays within a few percent.
	a := space.Config{2, 2, 1, 3, 4}
	b := space.Config{2, 2, 2, 3, 4}
	ta := rawTime(sp, a, 1, 0)
	tb := rawTime(sp, b, 1, 0)
	if ta == tb {
		t.Error("distinct configs got identical values")
	}
	pen := timePenalty(sp, a, 0)
	ratio := ta / (1 + pen)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("noise factor %v outside ±10%%", ratio)
	}
}

func TestEnergySpaceHasPowerCap(t *testing.T) {
	sp := Energy().Space()
	if sp.NumParams() != 6 || sp.Param(iCap).Name != "PKG_LIMIT" {
		t.Fatalf("energy space wrong: %d params", sp.NumParams())
	}
}

func TestThrottleMonotoneInCap(t *testing.T) {
	sp := Energy().Space()
	base := space.Config{2, 2, 1, 3, 4, 0}
	prevMul := math.Inf(1)
	prevPower := 0.0
	for capIdx := 0; capIdx < len(powerCaps); capIdx++ {
		c := base.Clone()
		c[iCap] = float64(capIdx)
		mul, power := throttle(sp, c)
		if mul > prevMul {
			t.Errorf("time multiplier increased with cap %d: %v > %v", powerCaps[capIdx], mul, prevMul)
		}
		if power < prevPower {
			t.Errorf("power decreased with larger cap %d", powerCaps[capIdx])
		}
		if power > float64(powerCaps[capIdx])+1e-9 {
			t.Errorf("power %v exceeds cap %d", power, powerCaps[capIdx])
		}
		if mul < 1 {
			t.Errorf("time multiplier %v < 1", mul)
		}
		prevMul, prevPower = mul, power
	}
}

func TestEnergyBestAtLowCap(t *testing.T) {
	tbl := Energy().Table()
	_, cfg, _ := tbl.Best()
	cap := tbl.Space.Param(iCap).NumericValue(int(cfg[iCap]))
	if cap > 65 {
		t.Errorf("best-energy cap = %v W, want a low cap (the expert's high-cap heuristic must be wrong)", cap)
	}
}

func TestTransferTargetBasinSparse(t *testing.T) {
	tgt := TransferTarget().Table()
	for _, g := range []struct {
		gamma float64
		max   int
	}{{0.05, 30}, {0.10, 30}, {0.20, 80}} {
		n := len(tgt.GoodSetTolerance(g.gamma))
		if n > g.max {
			t.Errorf("γ=%v good set = %d, want <= %d (paper: 2..18)", g.gamma, n, g.max)
		}
		if n < 1 {
			t.Errorf("γ=%v empty good set", g.gamma)
		}
	}
}

func TestTransferSourceSharesGrid(t *testing.T) {
	src := TransferSource().Table()
	energy := Energy().Table()
	if src.Len() != energy.Len() {
		t.Fatalf("transfer source (%d) and energy dataset (%d) should share the grid", src.Len(), energy.Len())
	}
}

func TestExpertsAreValidAndDocumented(t *testing.T) {
	for _, m := range []interface {
		Expert() (space.Config, string)
		Space() *space.Space
		Name() string
	}{Exec(), Energy(), TransferSource(), TransferTarget()} {
		cfg, note := m.Expert()
		if !m.Space().Valid(cfg) {
			t.Errorf("%s: expert invalid", m.Name())
		}
		if note == "" {
			t.Errorf("%s: expert note empty", m.Name())
		}
	}
}

// BenchmarkNewTunerTable builds a ranking tuner over the execution-time
// table passed as Options.Candidates, as the paper's Kripke runs do
// for every seed: the explicit set keeps its rows and is indexed in a
// dense grid table.
func BenchmarkNewTunerTable(b *testing.B) {
	tbl := Exec().Table()
	cands := make([]space.Config, tbl.Len())
	for i := range cands {
		cands[i] = tbl.Config(i)
	}
	obj := tbl.Objective()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewTuner(tbl.Space, obj, core.Options{Seed: uint64(i), Candidates: cands}); err != nil {
			b.Fatal(err)
		}
	}
}
