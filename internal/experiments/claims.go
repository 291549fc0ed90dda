package experiments

import (
	"fmt"

	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/dataset"
	"github.com/hpcautotune/hiperbot/internal/geist"
	"github.com/hpcautotune/hiperbot/internal/harness"
)

// Claim verification: every load-bearing quantitative claim of the
// paper, encoded as a predicate over (reduced-repetition) experiment
// results. cmd/experiments -verify evaluates all of them and prints a
// verdict table — the executable form of EXPERIMENTS.md.

// ClaimResult is one verified claim.
type ClaimResult struct {
	// ID names the claim ("fig2-best-at-96").
	ID string
	// Statement quotes/paraphrases the paper.
	Statement string
	// Measured summarizes the observed quantity.
	Measured string
	// Pass reports whether the reproduction upholds the claim.
	Pass bool
}

// VerifyClaims runs every claim check. cfg.Repetitions bounds the cost
// (10 is plenty; the checks use generous margins).
func VerifyClaims(cfg Config) ([]ClaimResult, error) {
	cfg = cfg.withDefaults()
	var out []ClaimResult

	curve := func(res *SelectionResult, method string) *harness.Curve {
		for _, c := range res.Curves {
			if c.Method == method {
				return c
			}
		}
		return nil
	}

	// --- Figure 2: Kripke execution time ---
	fig2, err := Fig2(cfg)
	if err != nil {
		return nil, err
	}
	hb := curve(fig2, "HiPerBOt")
	ge := curve(fig2, "GEIST")
	out = append(out, ClaimResult{
		ID:        "fig2-best-at-96",
		Statement: "HiPerBOt finds the absolute best Kripke configuration (8.43 s) using just 96 samples",
		Measured:  fmt.Sprintf("mean best@96 = %.3f vs exhaustive %.3f", hb.BestMean[2], fig2.ExhaustiveBest),
		Pass:      hb.BestMean[2] <= fig2.ExhaustiveBest*1.002,
	})
	out = append(out, ClaimResult{
		ID:        "fig2-beats-geist",
		Statement: "HiPerBOt outperforms GEIST on best configuration and recall",
		Measured: fmt.Sprintf("best %.3f vs %.3f; recall %.2f vs %.2f",
			hb.BestMean[5], ge.BestMean[5], hb.RecallMean[5], ge.RecallMean[5]),
		Pass: hb.BestMean[5] <= ge.BestMean[5]+1e-9 && hb.RecallMean[5] > ge.RecallMean[5],
	})
	out = append(out, ClaimResult{
		ID:        "fig2-expert-gap",
		Statement: "the expert's manual choice (15.2 s) is far from the 8.43 s optimum",
		Measured:  fmt.Sprintf("expert %.2f vs best %.2f", fig2.Expert, fig2.ExhaustiveBest),
		Pass:      fig2.Expert > 1.5*fig2.ExhaustiveBest,
	})

	// --- Headline: 50% fewer evaluations than GEIST ---
	// GEIST's evaluations-to-best is high-variance (std ≈ 80 over a
	// mean ≈ 120), so this check needs more repetitions than the curve
	// checks to be stable.
	headlineReps := cfg.Repetitions
	if headlineReps < 25 {
		headlineReps = 25
	}
	tbl := fig2curveTable()
	spec := harness.TargetSpec{
		Table: tbl, Tolerance: 0, MaxBudget: 400,
		Repetitions: headlineReps, BaseSeed: cfg.Seed,
	}
	hbT, err := harness.EvaluationsToTarget(harness.HiPerBOt(core.Options{}), spec)
	if err != nil {
		return nil, err
	}
	geT, err := harness.EvaluationsToTarget(harness.GEIST(geist.Options{}, false), spec)
	if err != nil {
		return nil, err
	}
	out = append(out, ClaimResult{
		ID:        "headline-50pct-fewer",
		Statement: "HiPerBOt uses ≥50% fewer evaluations than GEIST to find the best Kripke configuration",
		Measured:  fmt.Sprintf("mean evals-to-best %.0f vs %.0f", hbT.Mean, geT.Mean),
		Pass:      hbT.Mean <= 0.5*geT.Mean,
	})

	// --- Figure 3: Kripke energy ---
	fig3, err := Fig3(cfg)
	if err != nil {
		return nil, err
	}
	hb3 := curve(fig3, "HiPerBOt")
	out = append(out, ClaimResult{
		ID:        "fig3-best-at-2pct",
		Statement: "lowest-energy configuration found by evaluating only ~2.2% of the 17.8k space",
		Measured:  fmt.Sprintf("mean best@339 (1.9%%) = %.0f vs exhaustive %.0f", hb3.BestMean[3], fig3.ExhaustiveBest),
		Pass:      hb3.BestMean[3] <= fig3.ExhaustiveBest*1.005,
	})
	out = append(out, ClaimResult{
		ID:        "fig3-good-set",
		Statement: "more than 800 good configurations keep the recall plateau near 0.3",
		Measured:  fmt.Sprintf("good set %d; recall@439 = %.2f", fig3.GoodSetSize, hb3.RecallMean[4]),
		Pass:      fig3.GoodSetSize > 800 && hb3.RecallMean[4] >= 0.25 && hb3.RecallMean[4] <= 0.55,
	})

	// --- Figure 4: HYPRE ---
	fig4, err := Fig4(cfg)
	if err != nil {
		return nil, err
	}
	hb4 := curve(fig4, "HiPerBOt")
	out = append(out, ClaimResult{
		ID:        "fig4-best-at-5pct",
		Statement: "HYPRE best found evaluating just over 5% of the space",
		Measured:  fmt.Sprintf("mean best@241 (5.3%%) = %.4f vs exhaustive %.4f", hb4.BestMean[2], fig4.ExhaustiveBest),
		Pass:      hb4.BestMean[2] <= fig4.ExhaustiveBest*1.003,
	})

	// --- Figure 5: LULESH ---
	fig5, err := Fig5(cfg)
	if err != nil {
		return nil, err
	}
	hb5 := curve(fig5, "HiPerBOt")
	ge5 := curve(fig5, "GEIST")
	out = append(out, ClaimResult{
		ID:        "fig5-recall-08",
		Statement: "LULESH recall reaches ~0.8, more than 2x GEIST's",
		Measured:  fmt.Sprintf("recall %.2f vs GEIST %.2f", hb5.RecallMean[4], ge5.RecallMean[4]),
		Pass:      hb5.RecallMean[4] >= 0.8 && hb5.RecallMean[4] >= 2*ge5.RecallMean[4],
	})
	out = append(out, ClaimResult{
		ID:        "fig5-o3-default",
		Statement: "the default -O3 build (6.02 s) is far from the best flags (2.72 s)",
		Measured:  fmt.Sprintf("expert %.2f vs best %.2f", fig5.Expert, fig5.ExhaustiveBest),
		Pass:      fig5.Expert > 2*fig5.ExhaustiveBest,
	})

	// --- Figure 6: OpenAtom ---
	fig6, err := Fig6(cfg)
	if err != nil {
		return nil, err
	}
	hb6 := curve(fig6, "HiPerBOt")
	ge6 := curve(fig6, "GEIST")
	out = append(out, ClaimResult{
		ID:        "fig6-best-at-3pct",
		Statement: "OpenAtom best found exploring only ~3% of the space; recall ≥30% above GEIST",
		Measured: fmt.Sprintf("best@239 (2.7%%) = %.4f vs %.4f; recall %.2f vs %.2f",
			hb6.BestMean[2], fig6.ExhaustiveBest, hb6.RecallMean[4], ge6.RecallMean[4]),
		Pass: hb6.BestMean[2] <= fig6.ExhaustiveBest*1.005 && hb6.RecallMean[4] >= 1.3*ge6.RecallMean[4],
	})

	// --- Table I: importance leaders ---
	t1cfg := cfg
	if t1cfg.Repetitions > 10 {
		t1cfg.Repetitions = 10
	}
	entries, err := Table1(t1cfg)
	if err != nil {
		return nil, err
	}
	leaders := map[string]string{
		"hypre":    "Ranks",
		"lulesh":   "builtin",
		"openatom": "sgrain",
	}
	for _, e := range entries {
		want, ok := leaders[e.App]
		if !ok {
			continue
		}
		out = append(out, ClaimResult{
			ID:        "table1-" + e.App,
			Statement: fmt.Sprintf("Table I ranks %s first for %s (full data and 10%% sample)", want, e.App),
			Measured:  fmt.Sprintf("full: %s, 10%%: %s", e.FullNames[0], e.SampledNames[0]),
			Pass:      e.FullNames[0] == want && e.SampledNames[0] == want,
		})
	}

	// --- Figure 8: transfer learning ---
	f8cfg := cfg
	f8cfg.Repetitions = 1
	kr, err := Fig8Kripke(f8cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, ClaimResult{
		ID:        "fig8-kripke",
		Statement: "transfer learning reaches recall 1.0 at γ=5,10% on Kripke with 273 samples",
		Measured:  fmt.Sprintf("recalls %.2f/%.2f (good cases %d/%d)", kr.RecallHiPerBOt[0], kr.RecallHiPerBOt[1], kr.GoodCounts[0], kr.GoodCounts[1]),
		Pass:      kr.RecallHiPerBOt[0] >= 0.99 && kr.RecallHiPerBOt[1] >= 0.99,
	})
	hy, err := Fig8Hypre(f8cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, ClaimResult{
		ID:        "fig8-hypre",
		Statement: "HYPRE transfer identifies all good configurations at γ=10% (paper: all 19)",
		Measured:  fmt.Sprintf("recall@10%% = %.2f over %d good cases", hy.RecallHiPerBOt[1], hy.GoodCounts[1]),
		Pass:      hy.RecallHiPerBOt[1] >= 0.99,
	})

	// --- §VII timing ---
	oh, err := TunerOverhead(cfg.Seed)
	if err != nil {
		return nil, err
	}
	out = append(out, ClaimResult{
		ID:        "overhead",
		Statement: "tuner cost is a fraction of one application run (paper: ~600 ms)",
		Measured:  fmt.Sprintf("150-sample session in %v", oh.TunerWall),
		Pass:      oh.TunerWall.Seconds() < 5,
	})

	return out, nil
}

// fig2curveTable returns the Kripke exec dataset (helper to keep the
// claim code readable).
func fig2curveTable() *dataset.Table {
	return AllModels()[0].Table()
}
