// Command hiperbot tunes a parameter space against a measurement CSV
// or one of the built-in application models.
//
// Tune a CSV of prior measurements (header: parameter columns then one
// metric column; discrete levels as labels):
//
//	hiperbot -csv results.csv -budget 150
//
// Tune a built-in synthetic application model:
//
//	hiperbot -app kripke-exec -budget 96
//	hiperbot -app lulesh -budget 150 -importance
//
// The "huge" app is a ~1.3e8-point constrained grid that exercises
// the large-space mode: it is tuned directly against its analytic
// objective (no table is ever materialized), with -pool-cap and
// -candidate-samples steering the sampled-pool / sampling-engine
// behavior:
//
//	hiperbot -app huge -budget 200
//	hiperbot -app huge -budget 200 -strategy gp -pool-cap 2048
//
// The "compile40" app is a 40-flag synthetic compiler space (2^48
// grid points) with additive family structure — the many-parameter
// regime of the grouped engine. -groups partitions the space for
// per-subspace acquisition ("a,b;c,d" syntax; empty auto-proposes
// groups from importance and pairwise interactions):
//
//	hiperbot -app compile40 -budget 200 -strategy grouped
//	hiperbot -app compile40 -budget 200 -strategy grouped \
//	  -groups 'optlevel,inline,unroll,peel,ipa;vecwidth,slp,fma,prefetch,veclibm'
//
// The "service" app carries two real objectives (p95 latency and
// hourly cost); with -objectives the tuner optimizes the Pareto front
// directly (default engine: motpe) and prints the front instead of a
// single best:
//
//	hiperbot -app service -objectives p95_latency_ms,cost -budget 120
//
// The tool prints the best configuration found, the evaluation trace,
// and (with -importance) the JS-divergence parameter ranking.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"

	"github.com/hpcautotune/hiperbot/internal/apps"
	"github.com/hpcautotune/hiperbot/internal/apps/compile40"
	"github.com/hpcautotune/hiperbot/internal/apps/huge"
	"github.com/hpcautotune/hiperbot/internal/apps/hypre"
	"github.com/hpcautotune/hiperbot/internal/apps/kripke"
	"github.com/hpcautotune/hiperbot/internal/apps/lulesh"
	"github.com/hpcautotune/hiperbot/internal/apps/openatom"
	"github.com/hpcautotune/hiperbot/internal/apps/service"
	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/dataset"
	"github.com/hpcautotune/hiperbot/internal/httpapi"
	"github.com/hpcautotune/hiperbot/internal/objective"
	"github.com/hpcautotune/hiperbot/internal/report"
	"github.com/hpcautotune/hiperbot/internal/space"

	// Registers the "geist" and "gp" engines so -strategy geist/gp
	// works over the finite measurement tables ("motpe" rides in with
	// the objective import above).
	_ "github.com/hpcautotune/hiperbot/internal/geist"
	_ "github.com/hpcautotune/hiperbot/internal/gp"
)

func builtinModels() map[string]*apps.Model {
	return map[string]*apps.Model{
		"kripke-exec":   kripke.Exec(),
		"kripke-energy": kripke.Energy(),
		"hypre":         hypre.Selection(),
		"lulesh":        lulesh.Flags(),
		"openatom":      openatom.Decomposition(),
		"service":       service.Blended(),
	}
}

// appMetrics maps the apps that expose a multi-metric observation —
// the ones -objectives can tune multi-objectively.
func appMetrics(name string) func(space.Config) map[string]float64 {
	if name == "service" {
		return service.Metrics
	}
	return nil
}

func main() {
	// The tuning flags bind straight into one set of options; each path
	// below adds only its own candidates, objective vector, step hook, or
	// default engine.
	var opts core.Options
	var objectives []string
	flag.IntVar(&opts.InitialSamples, "init", 20, "initial random samples")
	flag.Float64Var(&opts.Surrogate.Quantile, "quantile", 0.20, "good/bad split quantile α")
	flag.StringVar(&opts.Engine, "strategy", "", "selection engine: "+strings.Join(core.EngineNames(), ", ")+" (default: paper choice)")
	flag.IntVar(&opts.PoolCap, "pool-cap", 0, "sampled candidate pool size on spaces too large to enumerate (0 = default, <0 = disable large-space mode)")
	flag.IntVar(&opts.CandidateSamples, "candidate-samples", 0, "good-density draws per pick of the pool-free TPE engines: proposal, sampling, grouped, motpe without a pool (0 = the engine's default)")
	flag.Func("groups", "parameter grouping for the grouped engine, \"a,b;c,d\" (empty = auto-propose from importance)", func(s string) error { opts.Groups = core.ParseGroups(s); return nil })
	flag.Uint64Var(&opts.Seed, "seed", 1, "random seed")
	flag.Func("objectives", "comma-separated objective specs for multi-objective tuning (e.g. p95_latency_ms,cost; needs a multi-metric app like service)", func(s string) error { objectives = httpapi.SplitList(s); return nil })
	var (
		csvPath    = flag.String("csv", "", "CSV file of measurements to tune over")
		appName    = flag.String("app", "", "built-in app model (kripke-exec, kripke-energy, hypre, lulesh, openatom, service, huge, compile40)")
		budget     = flag.Int("budget", 150, "total objective evaluations (including initial samples)")
		importance = flag.Bool("importance", false, "print the parameter-importance ranking")
		trace      = flag.Bool("trace", false, "print every evaluation")
		checkpoint = flag.String("checkpoint", "", "write the evaluation history to this CSV when done")
		resumePath = flag.String("resume", "", "resume from a history CSV written by -checkpoint")
		logPath    = flag.String("log", "", "stream one JSON line per evaluation to this file")
	)
	flag.Parse()

	if app, ok := analyticApps()[*appName]; ok {
		rejectFlags("-app "+*appName, "csv", "checkpoint", "resume", "log", "objectives")
		tuneAnalytic(app, opts, *budget, *importance, *trace)
		return
	}

	if len(objectives) > 0 {
		rejectFlags("-objectives", "csv", "checkpoint", "resume", "log", "importance")
		tuneMulti(*appName, objectives, opts, *budget, *trace)
		return
	}

	tbl, err := loadTable(*csvPath, *appName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hiperbot:", err)
		os.Exit(1)
	}
	if *budget > tbl.Len() {
		fmt.Fprintf(os.Stderr, "hiperbot: budget %d exceeds the %d available configurations\n", *budget, tbl.Len())
		os.Exit(1)
	}

	var onStep func(int, core.Observation)
	if *trace {
		onStep = func(i int, o core.Observation) {
			fmt.Printf("%4d  %-70s %.6g\n", i+1, tbl.Space.Describe(o.Config), o.Value)
		}
	}
	var recorder *core.Recorder
	if *logPath != "" {
		f, err := os.Create(*logPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hiperbot:", err)
			os.Exit(1)
		}
		defer f.Close()
		recorder = core.NewRecorder(f, tbl.Space)
		printStep := onStep
		onStep = func(i int, o core.Observation) {
			recorder.OnStep(i, o)
			if printStep != nil {
				printStep(i, o)
			}
		}
	}
	opts.Candidates = tbl.Configs()
	opts.OnStep = onStep
	tn, err := core.NewTuner(tbl.Space, tbl.Objective(), opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hiperbot:", err)
		os.Exit(1)
	}
	if *resumePath != "" {
		if err := resumeFrom(tn, tbl, *resumePath); err != nil {
			fmt.Fprintln(os.Stderr, "hiperbot:", err)
			os.Exit(1)
		}
		if recorder != nil {
			recorder.ResumeObs(tn.History().Observations())
		}
		fmt.Printf("resumed %d evaluations from %s\n", tn.Evaluations(), *resumePath)
	}
	best, err := tn.Run(*budget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hiperbot:", err)
		os.Exit(1)
	}
	if *checkpoint != "" {
		if err := writeCheckpoint(tn, *checkpoint); err != nil {
			fmt.Fprintln(os.Stderr, "hiperbot:", err)
			os.Exit(1)
		}
	}
	if recorder != nil && recorder.Err() != nil {
		fmt.Fprintln(os.Stderr, "hiperbot: event log:", recorder.Err())
		os.Exit(1)
	}

	report.Section(os.Stdout, "Tuning %s (%d configurations, metric: %s)", tbl.Name, tbl.Len(), tbl.Metric)
	fmt.Printf("evaluations: %d (%.1f%% of the space)\n", tn.Evaluations(), 100*float64(tn.Evaluations())/float64(tbl.Len()))
	fmt.Printf("best found:  %.6g\n  %s\n", best.Value, tbl.Space.Describe(best.Config))
	_, _, exhaustive := tbl.Best()
	fmt.Printf("exhaustive best: %.6g (gap: %.2f%%)\n", exhaustive, 100*(best.Value-exhaustive)/exhaustive)

	if *importance {
		imp, err := tn.Importance()
		if err != nil || imp == nil {
			fmt.Fprintln(os.Stderr, "hiperbot: the", tn.EngineName(), "engine produced no importance scores (budget <= initial samples, or a model without densities?)")
			os.Exit(1)
		}
		printImportance(tbl.Space, imp)
	}
}

// rejectFlags exits 2, as a flag error does, when the command line
// sets one of the named flags, which the path it chose does not honour.
func rejectFlags(path string, names ...string) {
	flag.Visit(func(f *flag.Flag) {
		if slices.Contains(names, f.Name) {
			fmt.Fprintf(os.Stderr, "hiperbot: -%s is not supported with %s\n", f.Name, path)
			os.Exit(2)
		}
	})
}

func loadTable(csvPath, appName string) (*dataset.Table, error) {
	switch {
	case csvPath != "" && appName != "":
		return nil, fmt.Errorf("pass either -csv or -app, not both")
	case csvPath != "":
		f, err := os.Open(csvPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		sp, err := inferSpace(csvPath)
		if err != nil {
			return nil, err
		}
		return dataset.ReadCSV(csvPath, sp, f)
	case appName != "":
		m, ok := builtinModels()[appName]
		if !ok {
			names := make([]string, 0, len(builtinModels()))
			for n := range builtinModels() {
				names = append(names, n)
			}
			sort.Strings(names)
			return nil, fmt.Errorf("unknown app %q (available: %s)", appName, strings.Join(names, ", "))
		}
		return m.Table(), nil
	default:
		return nil, fmt.Errorf("pass -csv FILE or -app NAME (see -h)")
	}
}

// inferSpace reads the CSV once to discover parameter columns and
// their observed levels, treating every column except the last as a
// discrete parameter.
func inferSpace(path string) (*space.Space, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.InferSpaceFromCSV(f)
}

// resumeFrom seeds the tuner with a checkpointed history.
func resumeFrom(tn *core.Tuner, tbl *dataset.Table, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	h, err := core.LoadHistoryCSV(tbl.Space, f)
	if err != nil {
		return err
	}
	return tn.Resume(h)
}

// writeCheckpoint persists the tuner's history for a later -resume.
func writeCheckpoint(tn *core.Tuner, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tn.History().WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("checkpoint written to %s (%d evaluations)\n", path, tn.Evaluations())
	return nil
}

func printImportance(sp *space.Space, imp []float64) {
	type pair struct {
		name string
		js   float64
	}
	pairs := make([]pair, len(imp))
	for i := range imp {
		pairs[i] = pair{sp.Param(i).Name, imp[i]}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].js > pairs[b].js })
	tbl := report.Table{Title: "\nParameter importance (JS divergence between good/bad densities)",
		Columns: []string{"parameter", "importance"}}
	for _, p := range pairs {
		tbl.Add(p.name, fmt.Sprintf("%.4f", p.js))
	}
	tbl.Render(os.Stdout)
}

// tuneMulti runs multi-objective tuning on an app that exposes a
// multi-metric observation, printing the Pareto front instead of a
// single best configuration. The default engine is motpe.
func tuneMulti(appName string, names []string, opts core.Options, budget int, trace bool) {
	metrics := appMetrics(appName)
	if metrics == nil {
		fmt.Fprintf(os.Stderr, "hiperbot: -objectives needs a multi-metric app (service), got %q\n", appName)
		os.Exit(1)
	}
	set, err := objective.ParseSet(names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hiperbot:", err)
		os.Exit(1)
	}
	tbl := builtinModels()[appName].Table()
	vector := func(c space.Config) []float64 {
		vec, err := set.Vector(0, metrics(c))
		if err != nil {
			fmt.Fprintln(os.Stderr, "hiperbot:", err)
			os.Exit(1)
		}
		return vec
	}
	var onStep func(int, core.Observation)
	if trace {
		onStep = func(i int, o core.Observation) {
			fmt.Printf("%4d  %-70s %v\n", i+1, tbl.Space.Describe(o.Config), vector(o.Config))
		}
	}
	if opts.Engine == "" {
		opts.Engine = "motpe"
	}
	opts.Candidates = tbl.Configs()
	opts.VectorObjective = vector
	opts.OnStep = onStep
	tn, err := core.NewTuner(tbl.Space, func(c space.Config) float64 {
		return set.Scalarize(vector(c))
	}, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hiperbot:", err)
		os.Exit(1)
	}
	if _, err := tn.Run(budget); err != nil {
		fmt.Fprintln(os.Stderr, "hiperbot:", err)
		os.Exit(1)
	}

	report.Section(os.Stdout, "Tuning %s for {%s} (%d configurations, %s engine)",
		appName, strings.Join(names, ", "), tbl.Len(), tn.EngineName())
	fmt.Printf("evaluations: %d\n\n", tn.Evaluations())
	h := tn.History()
	vecs := objective.HistoryVectors(h, nil)
	obs := h.Observations()
	front := objective.FrontIndices(vecs)
	out := report.Table{
		Title:   fmt.Sprintf("Pareto front (%d points)", len(front)),
		Columns: append([]string{"configuration"}, names...),
	}
	sort.Slice(front, func(a, b int) bool { return vecs[front[a]][0] < vecs[front[b]][0] })
	for _, i := range front {
		row := []string{tbl.Space.Describe(obs[i].Config)}
		for _, v := range vecs[i] {
			row = append(row, fmt.Sprintf("%.4g", v))
		}
		out.Add(row...)
	}
	out.Render(os.Stdout)
}

// analyticApp is a built-in app tuned directly against its analytic
// objective — its grid is too large to materialize as a table.
type analyticApp struct {
	name string
	sp   *space.Space
	eval func(space.Config) float64
}

// analyticApps lists the large-space apps: no table, no exhaustive
// best, no -csv-style loading.
func analyticApps() map[string]analyticApp {
	return map[string]analyticApp{
		huge.Name:      {huge.Name, huge.Space(), huge.Evaluate},
		compile40.Name: {compile40.Name, compile40.Space(), compile40.Evaluate},
	}
}

// tuneAnalytic drives a large-space app directly against its analytic
// objective: the grid is never materialized, so memory stays bounded
// by the pool cap (or by CandidateSamples for the pool-free sampling
// engine, or by the per-group enumerations of the grouped engine).
func tuneAnalytic(app analyticApp, opts core.Options, budget int, importance, trace bool) {
	sp := app.sp
	if trace {
		opts.OnStep = func(i int, obs core.Observation) {
			fmt.Printf("%4d  %-90s %.6g\n", i+1, sp.Describe(obs.Config), obs.Value)
		}
	}
	tn, err := core.NewTuner(sp, app.eval, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hiperbot:", err)
		os.Exit(1)
	}
	best, err := tn.Run(budget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hiperbot:", err)
		os.Exit(1)
	}
	grid, _ := sp.GridSize64()
	report.Section(os.Stdout, "Tuning %s (%d-point grid, large-space mode, %s engine)",
		app.name, grid, tn.EngineName())
	fmt.Printf("evaluations: %d (%.2g%% of the grid)\n", tn.Evaluations(), 100*float64(tn.Evaluations())/float64(grid))
	if n := tn.SampledPoolSize(); n > 0 {
		fmt.Printf("sampled pool: %d candidates\n", n)
	}
	if m, ok := tn.Model().(*core.GroupedModel); ok {
		if groups := m.Groups(); groups != nil {
			parts := make([]string, len(groups))
			for i, g := range groups {
				parts[i] = strings.Join(g, ",")
			}
			fmt.Printf("groups: %s\n", strings.Join(parts, "; "))
		}
	}
	fmt.Printf("best found:  %.6g\n  %s\n", best.Value, sp.Describe(best.Config))
	if importance {
		imp, err := tn.Importance()
		if err != nil || imp == nil {
			fmt.Fprintln(os.Stderr, "hiperbot: the", tn.EngineName(), "engine produced no importance scores")
			os.Exit(1)
		}
		printImportance(sp, imp)
	}
}
