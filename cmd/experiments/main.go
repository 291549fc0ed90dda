// Command experiments regenerates every table and figure of the
// paper's evaluation (IPDPS 2020, §V-§VII) from the synthetic
// application models, printing ASCII charts/tables with the same
// series the paper reports.
//
// Usage:
//
//	experiments -all                # everything (50 repetitions, as in the paper)
//	experiments -fig 2 -reps 10     # one figure, fewer repetitions
//	experiments -table 1
//	experiments -overhead           # the §VII tuner-cost measurement
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/experiments"
	"github.com/hpcautotune/hiperbot/internal/httpapi"
	"github.com/hpcautotune/hiperbot/internal/report"
)

func main() {
	var (
		fig      = flag.Int("fig", 0, "figure number to regenerate (1-8)")
		table    = flag.Int("table", 0, "table number to regenerate (1)")
		all      = flag.Bool("all", false, "regenerate every figure and table")
		overhead = flag.Bool("overhead", false, "measure tuner overhead (§VII timing claim)")
		ablation = flag.Bool("ablation", false, "run the DESIGN.md ablations (selection strategy, threshold, prior weight, joint vs factorized, batch size)")
		verify   = flag.Bool("verify", false, "evaluate every paper claim and print a PASS/FAIL verdict table")
		engines  = flag.String("engines", "", "comma-separated engine names (or \"all\") to race on -dataset using the Fig. 2-6 protocol")
		ds       = flag.String("dataset", "kripke-exec", "dataset for -engines (kripke-exec, kripke-energy, hypre, lulesh, openatom, service)")
		pareto   = flag.Bool("pareto", false, "multi-objective evaluation: motpe vs random Pareto fronts on the service app")
		grouped  = flag.Bool("grouped", false, "high-dimensional study: flat sampling vs grouped factorized surrogates on compile40 (40 params, 2^48 grid)")
		budget   = flag.Int("budget", 120, "evaluation budget per seed for -pareto")
		reps     = flag.Int("reps", 50, "repetitions per method (the paper uses 50)")
		seed     = flag.Uint64("seed", 20200518, "base random seed")
		jobs     = flag.Int("j", 0, "concurrent repetitions (0 = GOMAXPROCS); results are identical at any setting")
	)
	flag.Parse()

	cfg := experiments.Config{Repetitions: *reps, Seed: *seed, Parallelism: *jobs}
	start := time.Now()
	ran := false

	run := func(n int, f func() error) {
		if *all || *fig == n {
			ran = true
			if err := f(); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: figure %d: %v\n", n, err)
				os.Exit(1)
			}
		}
	}

	run(1, func() error { return fig1(*seed) })
	run(2, func() error { return selection("Figure 2: Kripke execution time", experiments.Fig2, cfg) })
	run(3, func() error { return selection("Figure 3: Kripke energy", experiments.Fig3, cfg) })
	run(4, func() error { return selection("Figure 4: HYPRE", experiments.Fig4, cfg) })
	run(5, func() error { return selection("Figure 5: LULESH", experiments.Fig5, cfg) })
	run(6, func() error { return selection("Figure 6: OpenAtom", experiments.Fig6, cfg) })
	run(7, func() error { return fig7(cfg) })
	run(8, func() error { return fig8(cfg) })
	if *all || *table == 1 {
		ran = true
		if err := table1(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: table 1: %v\n", err)
			os.Exit(1)
		}
	}
	if *all || *overhead {
		ran = true
		if err := timing(*seed); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: overhead: %v\n", err)
			os.Exit(1)
		}
	}
	if *all || *ablation {
		ran = true
		if err := ablations(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: ablations: %v\n", err)
			os.Exit(1)
		}
	}
	if *verify {
		ran = true
		if err := verifyClaims(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: verify: %v\n", err)
			os.Exit(1)
		}
	}
	if *engines != "" {
		ran = true
		if err := engineShootout(*ds, *engines, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: engines: %v\n", err)
			os.Exit(1)
		}
	}
	if *pareto {
		ran = true
		if err := paretoStudy(*budget, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: pareto: %v\n", err)
			os.Exit(1)
		}
	}
	if *grouped {
		ran = true
		if err := groupedStudy(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: grouped: %v\n", err)
			os.Exit(1)
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("\ntotal wall time: %v\n", time.Since(start).Round(time.Millisecond))
}

func fig1(seed uint64) error {
	res, err := experiments.Fig1(seed)
	if err != nil {
		return err
	}
	report.Section(os.Stdout, "Figure 1: toy example (1-D objective, α = 0.20)")
	fmt.Printf("true minimum at x = %.3f; best found after 10 iterations: x = %.3f\n",
		experiments.TrueToyMinimum(), res.BestX)
	fmt.Printf("good/bad threshold y(τ) = %.3f\n\n", res.Threshold)

	tbl := report.Table{Title: "Initial samples (Fig. 1a)", Columns: []string{"x", "f(x)", "label"}}
	for i := range res.InitX {
		label := "bad"
		if res.InitGood[i] {
			label = "good"
		}
		tbl.AddF(res.InitX[i], res.InitY[i], label)
	}
	tbl.Render(os.Stdout)

	// Density/EI snapshot on a coarse grid (Fig. 1b).
	var ticks []string
	var pg, pb, ei []float64
	for i := 0; i < len(res.Xs); i += len(res.Xs) / 10 {
		ticks = append(ticks, fmt.Sprintf("%.1f", res.Xs[i]))
		pg = append(pg, res.Pg[i])
		pb = append(pb, res.Pb[i])
		ei = append(ei, res.EI[i])
	}
	ch := report.Chart{
		Title: "Surrogate densities and expected improvement (Fig. 1b)", XLabel: "x",
		XTicks: ticks,
		Series: []report.Series{{Name: "pg", Points: pg}, {Name: "pb", Points: pb}, {Name: "EI", Points: ei}},
	}
	ch.Render(os.Stdout)

	near := 0
	for _, x := range res.AfterIter10X[10:] {
		d := x - experiments.TrueToyMinimum()
		if d < 0 {
			d = -d
		}
		if d < 0.75 {
			near++
		}
	}
	fmt.Printf("\nafter 10 iterations: %d/10 guided samples within ±0.75 of the minimum (Fig. 1d)\n", near)
	return nil
}

func selection(title string, f func(experiments.Config) (*experiments.SelectionResult, error), cfg experiments.Config) error {
	res, err := f(cfg)
	if err != nil {
		return err
	}
	report.Section(os.Stdout, "%s", title)
	fmt.Printf("dataset %s: %d configurations, metric %s\n", res.Dataset, res.SpaceSize, res.Metric)
	fmt.Printf("exhaustive best %.4g | expert %.4g (%s) | good set (best 5%%): %d configs\n\n",
		res.ExhaustiveBest, res.Expert, res.ExpertNote, res.GoodSetSize)

	ticks := make([]string, len(res.Curves[0].Checkpoints))
	for i, cp := range res.Curves[0].Checkpoints {
		ticks[i] = strconv.Itoa(cp)
	}
	bestSeries := []report.Series{{Name: "Exhaustive best", Points: flat(res.ExhaustiveBest, len(ticks))}}
	recallSeries := []report.Series{}
	for _, c := range res.Curves {
		bestSeries = append(bestSeries, report.Series{Name: c.Method, Points: c.BestMean})
		recallSeries = append(recallSeries, report.Series{Name: c.Method, Points: c.RecallMean})
	}
	(&report.Chart{Title: "(a) Best configuration vs sample size", XLabel: "samples", XTicks: ticks, Series: bestSeries}).Render(os.Stdout)
	fmt.Println()
	(&report.Chart{Title: "(b) Recall vs sample size (ℓ = 5%)", XLabel: "samples", XTicks: ticks, Series: recallSeries}).Render(os.Stdout)

	std := report.Table{Title: "\nPer-checkpoint mean ± std", Columns: append([]string{"method", "metric"}, ticks...)}
	for _, c := range res.Curves {
		row := []string{c.Method, "best"}
		for k := range c.BestMean {
			row = append(row, fmt.Sprintf("%.4g±%.2g", c.BestMean[k], c.BestStd[k]))
		}
		std.Add(row...)
		row = []string{c.Method, "recall"}
		for k := range c.RecallMean {
			row = append(row, fmt.Sprintf("%.3f±%.2f", c.RecallMean[k], c.RecallStd[k]))
		}
		std.Add(row...)
	}
	std.Render(os.Stdout)

	// Bootstrap 95% confidence intervals at the final checkpoint: the
	// statistically careful version of "who wins at the end".
	last := len(res.Curves[0].Checkpoints) - 1
	ci := report.Table{
		Title:   fmt.Sprintf("\n95%% bootstrap CI at %d samples", res.Curves[0].Checkpoints[last]),
		Columns: []string{"method", "best CI", "recall CI"},
	}
	for _, c := range res.Curves {
		blo, bhi := c.BestCI(last, 0.95)
		rlo, rhi := c.RecallCI(last, 0.95)
		ci.Add(c.Method,
			fmt.Sprintf("[%.4g, %.4g]", blo, bhi),
			fmt.Sprintf("[%.3f, %.3f]", rlo, rhi))
	}
	ci.Render(os.Stdout)
	return nil
}

// engineShootout races registered engines by name on one dataset
// using the same protocol and rendering as Figs. 2-6.
func engineShootout(ds, names string, cfg experiments.Config) error {
	model, checkpoints, err := experiments.ShootoutModel(ds)
	if err != nil {
		return err
	}
	list := httpapi.SplitList(names)
	if names == "all" {
		list = core.EngineNames()
	}
	return selection(
		fmt.Sprintf("Engine shootout on %s: %s", ds, strings.Join(list, " vs ")),
		func(cfg experiments.Config) (*experiments.SelectionResult, error) {
			return experiments.EngineShootout(model, list, checkpoints, cfg)
		}, cfg)
}

// paretoStudy renders the multi-objective evaluation: motpe vs random
// search on the two-objective service app, scored on Pareto fronts.
func paretoStudy(budget int, cfg experiments.Config) error {
	res, err := experiments.ParetoComparison(budget, cfg)
	if err != nil {
		return err
	}
	report.Section(os.Stdout, "Multi-objective: motpe vs random on %s (budget %d, %d seeds)",
		res.Dataset, res.Budget, res.Seeds)
	fmt.Printf("space: %d configurations; exhaustive Pareto front: %d points (inside the %.0f ms reference box)\n\n",
		res.SpaceSize, res.TrueFrontSize, experiments.RefLatencyMs)

	tbl := report.Table{Columns: []string{"metric", "motpe", "random"}}
	tbl.AddF("seeds whose front set-dominates the opponent's", res.MotpeDominates, res.RandomDominates)
	tbl.AddF("mean coverage of opponent front (C-metric)", res.MotpeCoverageMean, res.RandomCoverageMean)
	tbl.AddF("mean front size", res.MotpeFrontSizeMean, res.RandomFrontSizeMean)
	tbl.AddF("mean exact true-front points found", res.MotpeTrueHitsMean, res.RandomTrueHitsMean)
	tbl.Render(os.Stdout)
	fmt.Println()

	sc := report.Scatter{
		Title:  fmt.Sprintf("Pareto fronts, seed %d", res.ExampleSeed),
		XLabel: "p95 latency (ms)",
		YLabel: "cost ($/h)",
		Series: []report.PointSeries{
			{Name: "exhaustive true front", Points: scatterPoints(res.TrueFront)},
			{Name: "motpe", Points: scatterPoints(res.MotpeFront)},
			{Name: "random", Points: scatterPoints(res.RandomFront)},
		},
	}
	sc.Render(os.Stdout)
	return nil
}

func groupedStudy(cfg experiments.Config) error {
	res, err := experiments.GroupedComparison(cfg)
	if err != nil {
		return err
	}
	report.Section(os.Stdout, "High-dimensional: flat sampling vs grouped surrogates on compile40 (budget %d, %d seeds)",
		res.Budget, res.Seeds)
	fmt.Printf("space: 40 parameters, 2^48 grid; \"grouped\" uses the published family groups, \"auto\" lets the engine propose them\n\n")

	tbl := report.Table{Title: "Best compile+run cost at the budget (lower is better)",
		Columns: []string{"seed", "flat sampling", "grouped", "auto-grouped"}}
	for _, r := range res.Rows {
		tbl.AddF(r.Seed, r.Flat, r.Grouped, r.Auto)
	}
	tbl.Render(os.Stdout)
	fmt.Printf("\ngrouped beats flat on %d/%d seeds; auto-grouped on %d/%d\n",
		res.GroupedWins, res.Seeds, res.AutoWins, res.Seeds)
	fmt.Printf("mean model-guided ask: flat %v, grouped %v, auto %v\n",
		res.FlatAsk.Round(time.Microsecond), res.GroupedAsk.Round(time.Microsecond),
		res.AutoAsk.Round(time.Microsecond))
	return nil
}

func scatterPoints(front []experiments.ParetoPoint) []report.Point {
	out := make([]report.Point, len(front))
	for i, p := range front {
		out[i] = report.Point{X: p.Latency, Y: p.Cost}
	}
	return out
}

func fig7(cfg experiments.Config) error {
	report.Section(os.Stdout, "Figure 7: hyperparameter sensitivity (total budget 150)")
	for _, part := range []struct {
		name string
		f    func(experiments.Config) (*experiments.SensitivityResult, error)
	}{
		{"(a) initial sample size", experiments.Fig7Initial},
		{"(b) percentile threshold", experiments.Fig7Threshold},
	} {
		res, err := part.f(cfg)
		if err != nil {
			return err
		}
		ticks := make([]string, len(res.Values))
		for i, v := range res.Values {
			ticks[i] = fmt.Sprintf("%g", v)
		}
		series := make([]report.Series, len(res.Apps))
		for i, app := range res.Apps {
			series[i] = report.Series{Name: app, Points: res.Ratio[i]}
		}
		(&report.Chart{
			Title:  part.name + " — selected best / exhaustive best",
			XLabel: res.Hyperparameter, XTicks: ticks, Series: series,
		}).Render(os.Stdout)
		fmt.Println()
	}
	return nil
}

func table1(cfg experiments.Config) error {
	entries, err := experiments.Table1(cfg)
	if err != nil {
		return err
	}
	report.Section(os.Stdout, "Table I: relative ranking of parameters (JS divergence)")
	tbl := report.Table{Columns: []string{"application", "10% samples", "all samples"}}
	for _, e := range entries {
		tbl.Add(e.App, rankString(e.SampledNames, e.SampledJS), rankString(e.FullNames, e.FullJS))
	}
	tbl.Render(os.Stdout)
	return nil
}

func rankString(names []string, js []float64) string {
	s := ""
	for i := range names {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s(%.2f)", names[i], js[i])
	}
	return s
}

func fig8(cfg experiments.Config) error {
	report.Section(os.Stdout, "Figure 8: transfer learning (recall vs tolerance threshold)")
	for _, part := range []struct {
		name string
		f    func(experiments.Config) (*experiments.TransferResult, error)
	}{
		{"(a) Kripke", experiments.Fig8Kripke},
		{"(b) HYPRE", experiments.Fig8Hypre},
	} {
		res, err := part.f(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%s: DSrc %d configs, DTrgt %d configs, budget %d samples\n",
			part.name, res.SrcSize, res.TgtSize, res.Budget)
		tbl := report.Table{Columns: []string{"threshold (good cases)", "HiPerBOt", "PerfNet"}}
		for i, g := range res.Thresholds {
			tbl.Add(fmt.Sprintf("%.0f%% (%d)", g*100, res.GoodCounts[i]),
				fmt.Sprintf("%.3f", res.RecallHiPerBOt[i]),
				fmt.Sprintf("%.3f", res.RecallPerfNet[i]))
		}
		tbl.Render(os.Stdout)
		fmt.Println()
	}
	return nil
}

func timing(seed uint64) error {
	res, err := experiments.TunerOverhead(seed)
	if err != nil {
		return err
	}
	report.Section(os.Stdout, "§VII timing claim: tuner overhead vs application cost")
	fmt.Printf("HiPerBOt selected %d LULESH samples in %v (best found: %.3f s)\n",
		res.Budget, res.TunerWall.Round(time.Millisecond), res.BestValue)
	fmt.Printf("one application run at the optimum costs %.2f s; exhaustive search = %d runs\n",
		res.AppRunSeconds, res.ExhaustiveRuns)
	fmt.Printf("(the paper reports ~600 ms of tuner time against >19 h of exhaustive evaluation)\n")
	return nil
}

func ablations(cfg experiments.Config) error {
	// Ablations are extra studies; cap the repetitions to keep -all
	// affordable.
	if cfg.Repetitions > 10 {
		cfg.Repetitions = 10
	}
	report.Section(os.Stdout, "Ablations (DESIGN.md §4)")
	for _, ab := range []struct {
		name string
		f    func(experiments.Config) ([]experiments.AblationRow, error)
	}{
		{"Selection strategy (§III-D)", experiments.AblationSelection},
		{"Quantile threshold α", experiments.AblationThreshold},
		{"Transfer prior weight w (eqs. 9-10)", experiments.AblationTransferWeight},
		{"Factorized vs joint densities (§III-B)", experiments.AblationFactorizedVsJoint},
		{"Batch size (extension)", experiments.AblationBatchSize},
		{"GEIST graph weighting (extension)", experiments.AblationGEISTGraph},
	} {
		rows, err := ab.f(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", ab.name, err)
		}
		tbl := report.Table{Title: "\n" + ab.name, Columns: []string{"variant", "metric", "value"}}
		for _, r := range rows {
			tbl.Add(r.Variant, r.Metric, fmt.Sprintf("%.4f", r.Value))
		}
		tbl.Render(os.Stdout)
	}
	return nil
}

func verifyClaims(cfg experiments.Config) error {
	if cfg.Repetitions > 10 {
		cfg.Repetitions = 10 // margins in the checks tolerate fewer reps
	}
	report.Section(os.Stdout, "Claim verification (reduced repetitions: %d)", cfg.Repetitions)
	claims, err := experiments.VerifyClaims(cfg)
	if err != nil {
		return err
	}
	tbl := report.Table{Columns: []string{"claim", "verdict", "measured"}}
	failed := 0
	for _, c := range claims {
		verdict := "PASS"
		if !c.Pass {
			verdict = "FAIL"
			failed++
		}
		tbl.Add(c.ID, verdict, c.Measured)
	}
	tbl.Render(os.Stdout)
	fmt.Printf("\n%d/%d claims upheld\n", len(claims)-failed, len(claims))
	if failed > 0 {
		return fmt.Errorf("%d claims failed", failed)
	}
	return nil
}

func flat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}
