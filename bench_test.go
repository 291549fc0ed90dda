// Benchmarks regenerating every table and figure of the paper at
// reduced repetition counts (cmd/experiments runs the full 50-rep
// protocol), plus ablations of the design choices called out in
// DESIGN.md and micro-benchmarks of the hot kernels.
//
// Figure/table benchmarks report the headline quantities of the
// corresponding panel via b.ReportMetric, so `go test -bench .`
// doubles as a regression check on the reproduction's shape.
package hiperbot_test

import (
	"math"
	"testing"

	hiperbot "github.com/hpcautotune/hiperbot"
	"github.com/hpcautotune/hiperbot/internal/apps/kripke"
	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/experiments"
	"github.com/hpcautotune/hiperbot/internal/geist"
	"github.com/hpcautotune/hiperbot/internal/harness"
	"github.com/hpcautotune/hiperbot/internal/linalg"
	"github.com/hpcautotune/hiperbot/internal/space"
	"github.com/hpcautotune/hiperbot/internal/stats"
	"github.com/hpcautotune/hiperbot/miniapps/amg"
	"github.com/hpcautotune/hiperbot/miniapps/chares"
	"github.com/hpcautotune/hiperbot/miniapps/hydro"
	"github.com/hpcautotune/hiperbot/miniapps/sweep"
)

// benchCfg keeps figure benchmarks affordable under `go test -bench`.
var benchCfg = experiments.Config{Repetitions: 3, Seed: 99}

func BenchmarkFig1Toy(b *testing.B) {
	trueMin := experiments.TrueToyMinimum()
	var gap float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1(uint64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		gap = math.Abs(res.BestX - trueMin)
	}
	b.ReportMetric(gap, "argmin-gap")
}

// reportSelection runs one Fig. 2-6 driver and reports HiPerBOt's
// final best (relative to the exhaustive optimum) and final recall.
func reportSelection(b *testing.B, f func(experiments.Config) (*experiments.SelectionResult, error)) {
	b.Helper()
	var ratio, recall, geistRecall float64
	for i := 0; i < b.N; i++ {
		res, err := f(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range res.Curves {
			last := len(c.Checkpoints) - 1
			switch c.Method {
			case "HiPerBOt":
				ratio = c.BestMean[last] / res.ExhaustiveBest
				recall = c.RecallMean[last]
			case "GEIST":
				geistRecall = c.RecallMean[last]
			}
		}
	}
	b.ReportMetric(ratio, "best/exhaustive")
	b.ReportMetric(recall, "recall")
	b.ReportMetric(geistRecall, "recall-geist")
}

func BenchmarkFig2Kripke(b *testing.B)       { reportSelection(b, experiments.Fig2) }
func BenchmarkFig3KripkeEnergy(b *testing.B) { reportSelection(b, experiments.Fig3) }
func BenchmarkFig4Hypre(b *testing.B)        { reportSelection(b, experiments.Fig4) }
func BenchmarkFig5Lulesh(b *testing.B)       { reportSelection(b, experiments.Fig5) }
func BenchmarkFig6OpenAtom(b *testing.B)     { reportSelection(b, experiments.Fig6) }

func BenchmarkFig7Sensitivity(b *testing.B) {
	cfg := experiments.Config{Repetitions: 2, Seed: 7}
	var worst float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7Threshold(cfg)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, row := range res.Ratio {
			for _, r := range row {
				if r > worst {
					worst = r
				}
			}
		}
	}
	b.ReportMetric(worst, "worst-ratio")
}

func BenchmarkTable1Importance(b *testing.B) {
	cfg := experiments.Config{Repetitions: 2, Seed: 5}
	var topJS float64
	for i := 0; i < b.N; i++ {
		entries, err := experiments.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		topJS = entries[0].FullJS[0]
	}
	b.ReportMetric(topJS, "top-js")
}

func benchTransfer(b *testing.B, f func(experiments.Config) (*experiments.TransferResult, error)) {
	b.Helper()
	cfg := experiments.Config{Repetitions: 1, Seed: 3}
	var r10 float64
	for i := 0; i < b.N; i++ {
		res, err := f(cfg)
		if err != nil {
			b.Fatal(err)
		}
		r10 = res.RecallHiPerBOt[1]
	}
	b.ReportMetric(r10, "recall@10%")
}

func BenchmarkFig8TransferKripke(b *testing.B) { benchTransfer(b, experiments.Fig8Kripke) }
func BenchmarkFig8TransferHypre(b *testing.B)  { benchTransfer(b, experiments.Fig8Hypre) }

// The paper's headline claim (§I, §IX): "HiPerBOt uses 50% fewer
// evaluations to find the best configuration for Kripke in comparison
// to a competitive method". Reported metric: mean evaluations to reach
// the exact Kripke optimum, per method.
func BenchmarkHeadlineEvaluationsToBest(b *testing.B) {
	tbl := kripke.Exec().Table()
	spec := harness.TargetSpec{
		Table: tbl, Tolerance: 0, MaxBudget: 400,
		Repetitions: 10, BaseSeed: 31,
	}
	for _, m := range []harness.Method{
		harness.HiPerBOt(core.Options{}),
		harness.GEIST(geist.Options{}, false),
		harness.Random(),
	} {
		m := m
		b.Run(m.Name, func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				res, err := harness.EvaluationsToTarget(m, spec)
				if err != nil {
					b.Fatal(err)
				}
				mean = res.Mean
			}
			b.ReportMetric(mean, "evals-to-best")
		})
	}
}

func BenchmarkTunerOverhead(b *testing.B) {
	var ms float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.TunerOverhead(uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		ms = float64(res.TunerWall.Milliseconds())
	}
	b.ReportMetric(ms, "tuner-ms")
}

// --- Ablations (DESIGN.md §4) ---

// Ranking vs Proposal on the same finite space (paper §III-D): the
// metric is the best value found at a fixed budget.
func BenchmarkAblationSelection(b *testing.B) {
	tbl := kripke.Exec().Table()
	for _, strat := range []string{core.Ranking, core.Proposal} {
		strat := strat
		b.Run(strat, func(b *testing.B) {
			var best float64
			for i := 0; i < b.N; i++ {
				m := harness.HiPerBOt(core.Options{Engine: strat})
				h, err := m.Run(tbl, 96, uint64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				best = h.Best().Value
			}
			b.ReportMetric(best/8.43, "best/exhaustive")
		})
	}
}

// α-quantile threshold sweep (the paper's Fig. 7b knob) on LULESH.
func BenchmarkAblationThreshold(b *testing.B) {
	m := experiments.AllModels()[1] // lulesh
	tbl := m.Table()
	_, _, exhaustive := tbl.Best()
	for _, alpha := range []float64{0.05, 0.20, 0.50} {
		alpha := alpha
		b.Run(quantileName(alpha), func(b *testing.B) {
			var best float64
			for i := 0; i < b.N; i++ {
				meth := harness.HiPerBOt(core.Options{Surrogate: core.SurrogateConfig{Quantile: alpha}})
				h, err := meth.Run(tbl, 150, uint64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				best = h.Best().Value
			}
			b.ReportMetric(best/exhaustive, "best/exhaustive")
		})
	}
}

func quantileName(a float64) string {
	switch a {
	case 0.05:
		return "alpha=0.05"
	case 0.20:
		return "alpha=0.20"
	default:
		return "alpha=0.50"
	}
}

// Transfer prior weight sweep (eqs. 9-10): recall@10% on the Kripke
// transfer pair as w varies.
func BenchmarkAblationTransferWeight(b *testing.B) {
	src := kripke.TransferSource().Table()
	tgt := kripke.TransferTarget().Table()
	srcHist := core.NewHistory(src.Space)
	for i := 0; i < src.Len(); i++ {
		srcHist.MustAdd(src.Config(i), src.Value(i))
	}
	prior, err := core.NewPrior(srcHist, core.SurrogateConfig{})
	if err != nil {
		b.Fatal(err)
	}
	good := harness.ToleranceGoodSet(tgt, 0.10)
	budget := tgt.Len()/100 + 100
	for _, w := range []float64{0.25, 1, 4} {
		w := w
		b.Run(weightName(w), func(b *testing.B) {
			var recall float64
			for i := 0; i < b.N; i++ {
				m := harness.HiPerBOt(core.Options{Surrogate: core.SurrogateConfig{Prior: prior, PriorWeight: w}})
				h, err := m.Run(tgt, budget, uint64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				recall = good.Recall(tgt, h, h.Len())
			}
			b.ReportMetric(recall, "recall@10%")
		})
	}
}

func weightName(w float64) string {
	switch w {
	case 0.25:
		return "w=0.25"
	case 1:
		return "w=1"
	default:
		return "w=4"
	}
}

// Factorized (paper eqs. 7-8) vs full-joint histograms (the design the
// paper rejects as infeasible, §III-B): after 100 observations of the
// Kripke exec dataset, what fraction of each model's top-50 ranked
// configurations belongs to the true 5% good set?
func BenchmarkAblationFactorizedVsJoint(b *testing.B) {
	tbl := kripke.Exec().Table()
	good := harness.PercentileGoodSet(tbl, 0.05)
	mkHistory := func(seed uint64) *core.History {
		h := core.NewHistory(tbl.Space)
		r := stats.NewRNG(seed)
		for _, idx := range r.SampleWithoutReplacement(tbl.Len(), 100) {
			h.MustAdd(tbl.Config(idx), tbl.Value(idx))
		}
		return h
	}
	precisionAt50 := func(score func(c hiperbot.Config) float64) float64 {
		type ranked struct {
			idx int
			s   float64
		}
		rows := make([]ranked, tbl.Len())
		for i := range rows {
			rows[i] = ranked{idx: i, s: score(tbl.Config(i))}
		}
		// Partial selection of the top 50 by score.
		for k := 0; k < 50; k++ {
			best := k
			for j := k + 1; j < len(rows); j++ {
				if rows[j].s > rows[best].s {
					best = j
				}
			}
			rows[k], rows[best] = rows[best], rows[k]
		}
		hits := 0
		for k := 0; k < 50; k++ {
			if good.Contains(rows[k].idx) {
				hits++
			}
		}
		return float64(hits) / 50
	}

	b.Run("factorized", func(b *testing.B) {
		var p float64
		for i := 0; i < b.N; i++ {
			s, err := core.BuildSurrogate(mkHistory(uint64(i)+1), core.SurrogateConfig{})
			if err != nil {
				b.Fatal(err)
			}
			p = precisionAt50(s.Score)
		}
		b.ReportMetric(p, "precision@50")
	})
	b.Run("joint", func(b *testing.B) {
		var p float64
		for i := 0; i < b.N; i++ {
			j, err := core.BuildJointSurrogate(mkHistory(uint64(i)+1), core.SurrogateConfig{})
			if err != nil {
				b.Fatal(err)
			}
			p = precisionAt50(j.Score)
		}
		b.ReportMetric(p, "precision@50")
	})
}

// KDE bandwidth ablation on a continuous toy space: fixed bandwidth vs
// Scott's rule.
func BenchmarkAblationBandwidth(b *testing.B) {
	sp := hiperbot.NewSpace(hiperbot.Continuous("x", 0, 5))
	obj := func(c hiperbot.Config) float64 {
		return (c[0] - 1.9) * (c[0] - 1.9)
	}
	for _, bw := range []float64{0, 0.1, 0.5} { // 0 = Scott
		bw := bw
		b.Run(bandwidthName(bw), func(b *testing.B) {
			var gap float64
			for i := 0; i < b.N; i++ {
				tn, err := hiperbot.NewTuner(sp, obj, hiperbot.Options{
					InitialSamples: 10, Seed: uint64(i) + 1,
					Surrogate: hiperbot.SurrogateConfig{Bandwidth: bw},
				})
				if err != nil {
					b.Fatal(err)
				}
				best, err := tn.Run(60)
				if err != nil {
					b.Fatal(err)
				}
				gap = math.Abs(best.Config[0] - 1.9)
			}
			b.ReportMetric(gap, "argmin-gap")
		})
	}
}

func bandwidthName(bw float64) string {
	switch bw {
	case 0:
		return "scott"
	case 0.1:
		return "h=0.1"
	default:
		return "h=0.5"
	}
}

// --- Micro-benchmarks of the hot paths ---

func BenchmarkSurrogateBuild(b *testing.B) {
	tbl := kripke.Energy().Table()
	h := core.NewHistory(tbl.Space)
	r := stats.NewRNG(1)
	for _, idx := range r.SampleWithoutReplacement(tbl.Len(), 400) {
		h.MustAdd(tbl.Config(idx), tbl.Value(idx))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildSurrogate(h, core.SurrogateConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRankingScore(b *testing.B) {
	tbl := kripke.Energy().Table()
	h := core.NewHistory(tbl.Space)
	r := stats.NewRNG(1)
	for _, idx := range r.SampleWithoutReplacement(tbl.Len(), 200) {
		h.MustAdd(tbl.Config(idx), tbl.Value(idx))
	}
	s, err := core.BuildSurrogate(h, core.SurrogateConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		for j := 0; j < tbl.Len(); j++ {
			sum += s.Score(tbl.Config(j))
		}
		_ = sum
	}
	b.ReportMetric(float64(tbl.Len()), "candidates")
}

// scoredKripkeSurrogate fits the ranking engine's TPE model over the
// full Kripke exec candidate pool and returns its surrogate, shared by
// the ScoreConfig/ScoreBatch pair.
func scoredKripkeSurrogate(b *testing.B) (*core.Surrogate, *space.Batch) {
	b.Helper()
	tbl := kripke.Exec().Table()
	cands := make([]space.Config, tbl.Len())
	for i := range cands {
		cands[i] = tbl.Config(i)
	}
	tn, err := core.NewTuner(tbl.Space, tbl.Objective(), core.Options{
		Seed: 1, Candidates: cands,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tn.Run(40); err != nil {
		b.Fatal(err)
	}
	batch, err := space.NewBatch(tbl.Space, cands)
	if err != nil {
		b.Fatal(err)
	}
	return tn.Model().(*core.TPEModel).Surrogate(), batch
}

// BenchmarkScoreConfig is the seed hot path: one Score call per
// candidate Config over the full Kripke exec set.
func BenchmarkScoreConfig(b *testing.B) {
	s, batch := scoredKripkeSurrogate(b)
	n := batch.Len()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			sum += s.Score(batch.Config(j))
		}
		_ = sum
	}
	b.ReportMetric(float64(n), "candidates")
}

// BenchmarkScoreBatch is the refactored hot path: one columnar
// ScoreBatch sweep (serial), and the chunked worker-pool ScoreAll the
// ranking acquirer actually calls (parallel).
func BenchmarkScoreBatch(b *testing.B) {
	s, batch := scoredKripkeSurrogate(b)
	dst := make([]float64, batch.Len())
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.ScoreBatch(batch, dst)
		}
		b.ReportMetric(float64(batch.Len()), "candidates")
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ScoreAll(s, batch, 0, dst)
		}
		b.ReportMetric(float64(batch.Len()), "candidates")
	})
}

// Extended baselines: the GP-EI method (Duplyakin et al.) the paper
// cites as transitively beaten. Reported: recall@96 per method.
func BenchmarkExtendedBaselinesGP(b *testing.B) {
	tbl := kripke.Exec().Table()
	spec := harness.CurveSpec{
		Table: tbl, Checkpoints: []int{96}, Repetitions: 3, BaseSeed: 61,
	}
	for _, m := range []harness.Method{
		harness.HiPerBOt(core.Options{}),
		harness.GEIST(geist.Options{}, false),
		harness.GP(),
	} {
		m := m
		b.Run(m.Name, func(b *testing.B) {
			var recall float64
			for i := 0; i < b.N; i++ {
				c, err := harness.RunCurve(m, spec)
				if err != nil {
					b.Fatal(err)
				}
				recall = c.RecallMean[0]
			}
			b.ReportMetric(recall, "recall@96")
		})
	}
}

func BenchmarkCAMLPPropagate(b *testing.B) {
	tbl := kripke.Exec().Table()
	g := geist.BuildGraph(tbl)
	labels := map[int]bool{0: true, tbl.Len() / 2: false, tbl.Len() - 1: false}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		geist.DefaultCAMLP().Propagate(g, labels)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	r := stats.NewRNG(1)
	a := linalg.NewMatrix(128, 128)
	c := linalg.NewMatrix(128, 128)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
		c.Data[i] = r.NormFloat64()
	}
	dst := linalg.NewMatrix(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linalg.MatMul(dst, a, c)
	}
	b.SetBytes(128 * 128 * 8 * 3)
}

func BenchmarkSweepKernel(b *testing.B) {
	cfg := sweep.DefaultConfig()
	cfg.Workers = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweep3DKernel(b *testing.B) {
	cfg := sweep.DefaultConfig3D()
	cfg.Workers = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.Run3D(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVCycle(b *testing.B) {
	cfg := amg.DefaultConfig()
	cfg.N = 63
	cfg.Levels = 4
	cfg.Tol = 1e-6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := amg.Solve(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHydroStep(b *testing.B) {
	cfg := hydro.DefaultConfig()
	cfg.Steps = 5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hydro.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCharesScheduler(b *testing.B) {
	cfg := chares.DefaultConfig()
	cfg.TotalWork = 1 << 18
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chares.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
