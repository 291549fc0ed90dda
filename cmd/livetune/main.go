// Command livetune autotunes the live parallel mini-kernels in
// miniapps/ by measured wall time — the end-to-end workflow the paper
// targets, where every objective evaluation is a real execution.
//
//	livetune -kernel sweep -budget 48
//	livetune -kernel amg -budget 40 -marginals
//	livetune -kernel hydro -budget 40
//	livetune -kernel chares -budget 40
//
// With -server the ask/tell loop runs through a hiperbotd daemon
// instead of an in-process Tuner: livetune becomes a worker that
// leases candidates over HTTP, measures them locally, and reports
// the results back — the daemon owns the session state and journal.
//
//	hiperbotd -addr :8080 &
//	livetune -kernel sweep -budget 48 -server http://localhost:8080
//
// Measurements are medians over -reps runs to tame wall-clock noise.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/hpcautotune/hiperbot/client"
	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/httpapi"
	"github.com/hpcautotune/hiperbot/internal/report"
	"github.com/hpcautotune/hiperbot/internal/server"
	"github.com/hpcautotune/hiperbot/internal/space"

	// Registers the "geist", "gp", and "motpe" engines so -strategy
	// lists them on the finite kernel spaces.
	_ "github.com/hpcautotune/hiperbot/internal/geist"
	_ "github.com/hpcautotune/hiperbot/internal/gp"
	_ "github.com/hpcautotune/hiperbot/internal/objective"
	"github.com/hpcautotune/hiperbot/miniapps/amg"
	"github.com/hpcautotune/hiperbot/miniapps/chares"
	"github.com/hpcautotune/hiperbot/miniapps/hydro"
	"github.com/hpcautotune/hiperbot/miniapps/sweep"
)

// kernel bundles a tunable space with a measured objective.
type kernel struct {
	space   *space.Space
	measure func(c space.Config) (time.Duration, error)
}

func kernels() map[string]kernel {
	return map[string]kernel{
		"sweep": {
			space: space.New(
				space.Discrete("nesting", "GDZ", "DGZ", "ZGD"),
				space.DiscreteInts("gset", 1, 2, 4, 8),
				space.DiscreteInts("dset", 1, 2, 4, 8),
				space.DiscreteInts("workers", 1, 2, 4, 8),
			),
			measure: func(c space.Config) (time.Duration, error) {
				res, err := sweep.Run(sweep.Config{
					NX: 64, NY: 64, Groups: 16, Directions: 16,
					Nesting: []sweep.Nesting{sweep.NestingGDZ, sweep.NestingDGZ, sweep.NestingZGD}[int(c[0])],
					Gset:    []int{1, 2, 4, 8}[int(c[1])],
					Dset:    []int{1, 2, 4, 8}[int(c[2])],
					Workers: []int{1, 2, 4, 8}[int(c[3])],
				})
				return res.Elapsed, err
			},
		},
		"sweep3d": {
			space: space.New(
				space.Discrete("nesting", "GDZ", "DGZ", "ZGD"),
				space.DiscreteInts("gset", 1, 2, 4),
				space.DiscreteInts("workers", 1, 2, 4, 8),
			),
			measure: func(c space.Config) (time.Duration, error) {
				res, err := sweep.Run3D(sweep.Config3D{
					NX: 24, NY: 24, NZ: 24, Groups: 8, Directions: 24,
					Nesting: []sweep.Nesting{sweep.NestingGDZ, sweep.NestingDGZ, sweep.NestingZGD}[int(c[0])],
					Gset:    []int{1, 2, 4}[int(c[1])],
					Workers: []int{1, 2, 4, 8}[int(c[2])],
				})
				return res.Elapsed, err
			},
		},
		"amg": {
			space: space.New(
				space.Discrete("smoother", "jacobi", "redblack-gs"),
				space.DiscreteInts("levels", 2, 3, 4, 5),
				space.DiscreteInts("presweeps", 1, 2, 3),
				space.DiscreteInts("postsweeps", 0, 1, 2),
				space.DiscreteInts("mu", 1, 2),
				space.DiscreteInts("workers", 1, 2, 4),
			),
			measure: func(c space.Config) (time.Duration, error) {
				res, err := amg.Solve(amg.Config{
					N:          127,
					Smoother:   []amg.Smoother{amg.Jacobi, amg.RedBlackGS}[int(c[0])],
					Levels:     []int{2, 3, 4, 5}[int(c[1])],
					PreSweeps:  []int{1, 2, 3}[int(c[2])],
					PostSweeps: []int{0, 1, 2}[int(c[3])],
					MU:         []int{1, 2}[int(c[4])],
					Workers:    []int{1, 2, 4}[int(c[5])],
					Tol:        1e-8,
				})
				if err != nil {
					return 0, err
				}
				if !res.Converged {
					// Non-convergence is a (very) bad configuration,
					// not an error: report the elapsed time scaled up.
					return res.Elapsed * 10, nil
				}
				return res.Elapsed, nil
			},
		},
		"hydro": {
			space: space.New(
				space.DiscreteInts("tile", 0, 4, 8, 16, 32),
				space.DiscreteInts("unroll", 1, 2, 4),
				space.Discrete("alloc", "per-step", "pooled"),
				space.DiscreteInts("workers", 1, 2, 4),
			),
			measure: func(c space.Config) (time.Duration, error) {
				res, err := hydro.Run(hydro.Config{
					NX: 96, NY: 96, Steps: 12,
					Tile:    []int{0, 4, 8, 16, 32}[int(c[0])],
					Unroll:  []int{1, 2, 4}[int(c[1])],
					Alloc:   []hydro.Alloc{hydro.AllocPerStep, hydro.AllocPooled}[int(c[2])],
					Workers: []int{1, 2, 4}[int(c[3])],
				})
				return res.Elapsed, err
			},
		},
		"chares": {
			space: space.New(
				space.DiscreteInts("grain", 1<<8, 1<<10, 1<<12, 1<<14, 1<<16),
				space.DiscreteInts("workers", 1, 2, 4, 8),
			),
			measure: func(c space.Config) (time.Duration, error) {
				res, err := chares.Run(chares.Config{
					TotalWork: 1 << 20,
					Grain:     []int{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16}[int(c[0])],
					Imbalance: 0.7,
					Workers:   []int{1, 2, 4, 8}[int(c[1])],
				})
				return res.Elapsed, err
			},
		},
	}
}

func main() {
	// The session flags bind straight into one set of session options,
	// sent to the daemon with -server and mapped to the in-process
	// tuner's options otherwise.
	var opts client.SessionOptions
	flag.Uint64Var(&opts.Seed, "seed", 1, "random seed")
	flag.StringVar(&opts.Strategy, "strategy", "", "selection engine: "+strings.Join(core.EngineNames(), ", ")+" (default: paper choice)")
	flag.Func("objectives", "comma-separated objective specs for a multi-objective session (with -server; e.g. p95_latency_ms,cost) — p95 is the worst rep, cost is worker-seconds", func(s string) error { opts.Objectives = httpapi.SplitList(s); return nil })
	flag.IntVar(&opts.PoolCap, "pool-cap", 0, "sampled candidate pool size on spaces too large to enumerate (0 = default, <0 = disable large-space mode)")
	flag.IntVar(&opts.CandidateSamples, "candidate-samples", 0, "good-density draws per pick of the pool-free TPE engines: proposal, sampling, grouped, motpe without a pool (0 = the engine's default)")
	flag.StringVar(&opts.Liar, "liar", "", "constant-liar policy for leased candidates: min, mean, or max (with -server; empty = server default)")
	flag.Func("groups", "parameter grouping for the grouped strategy, \"a,b;c,d\" (empty = auto-propose)", func(s string) error { opts.Groups = core.ParseGroups(s); return nil })
	var (
		name      = flag.String("kernel", "sweep", "kernel to tune: sweep, sweep3d, amg, hydro, chares")
		budget    = flag.Int("budget", 48, "total measured configurations")
		reps      = flag.Int("reps", 3, "measurements per configuration (median taken)")
		marginals = flag.Bool("marginals", false, "print the surrogate's per-parameter beliefs")
		serverURL = flag.String("server", "", "hiperbotd base URL; tune through the daemon instead of in-process")
		batch     = flag.Int("batch", 4, "candidates leased per suggest call (with -server)")
	)
	flag.Parse()

	k, ok := kernels()[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "livetune: unknown kernel %q\n", *name)
		os.Exit(1)
	}

	evals := 0
	measureSorted := func(c space.Config) []float64 {
		evals++
		times := make([]float64, 0, *reps)
		for i := 0; i < *reps; i++ {
			d, err := k.measure(c)
			if err != nil {
				fmt.Fprintln(os.Stderr, "livetune:", err)
				os.Exit(1)
			}
			times = append(times, d.Seconds())
		}
		sort.Float64s(times)
		return times
	}
	objective := func(c space.Config) float64 {
		times := measureSorted(c)
		return times[len(times)/2]
	}

	if *serverURL != "" {
		tuneRemote(*serverURL, *name, k, measureSorted, *budget, *batch, opts, &evals, *marginals)
		return
	}
	if len(opts.Objectives) > 0 {
		fmt.Fprintln(os.Stderr, "livetune: -objectives needs -server (the daemon owns multi-objective sessions)")
		os.Exit(1)
	}
	if opts.Liar != "" {
		fmt.Fprintln(os.Stderr, "livetune: -liar needs -server (in-process runs evaluate serially, with no leases to fantasize)")
		os.Exit(1)
	}

	start := time.Now()
	tunerOpts, err := server.TunerOptions(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "livetune:", err)
		os.Exit(1)
	}
	tn, err := core.NewTuner(k.space, objective, tunerOpts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "livetune:", err)
		os.Exit(1)
	}
	best, err := tn.Run(*budget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "livetune:", err)
		os.Exit(1)
	}

	report.Section(os.Stdout, "Tuned %s kernel by measured wall time (%s engine)", *name, tn.EngineName())
	fmt.Printf("measured %d configurations (%d runs) in %v\n",
		evals, evals**reps, time.Since(start).Round(time.Millisecond))
	fmt.Printf("fastest: %s → %.3f ms\n", k.space.Describe(best.Config), best.Value*1e3)

	if *marginals {
		if m, ok := tn.Model().(core.Marginaler); ok {
			if rep := m.Marginals(); rep != nil {
				fmt.Println("\nsurrogate beliefs:")
				fmt.Print(core.RenderMarginals(rep))
			}
		} else {
			fmt.Printf("\n(the %s engine has no per-parameter marginals)\n", tn.EngineName())
		}
	}
}

// kernelMetrics builds the multi-metric observation for one measured
// configuration: the median wall time as the legacy value, the worst
// rep as the p95 proxy, and worker-seconds as the resource cost.
func kernelMetrics(sp *space.Space, c space.Config, sorted []float64) (float64, map[string]float64) {
	median := sorted[len(sorted)/2]
	workers := 1.0
	if i := sp.IndexOf("workers"); i >= 0 {
		workers = sp.Param(i).NumericValue(int(c[i]))
	}
	return median, map[string]float64{
		"value":          median,
		"p95_latency_ms": sorted[len(sorted)-1] * 1e3,
		"cost":           workers * median,
	}
}

// tuneRemote drives the same measured objective through a hiperbotd
// daemon: candidates arrive as wire configs, are parsed against the
// locally known space, measured, and reported back. With
// opts.Objectives the session is multi-objective and the measured
// Pareto front is printed instead of a single fastest config.
func tuneRemote(baseURL, kernelName string, k kernel, measureSorted func(space.Config) []float64, budget, batch int, opts client.SessionOptions, evals *int, marginals bool) {
	ctx := context.Background()
	cl, err := client.New(baseURL)
	if err != nil {
		fmt.Fprintln(os.Stderr, "livetune:", err)
		os.Exit(1)
	}
	id, err := cl.CreateSessionFromSpace(ctx, "", k.space, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "livetune:", err)
		os.Exit(1)
	}
	fmt.Printf("tuning %s through %s (session %s)\n", kernelName, baseURL, id)

	start := time.Now()
	info, err := cl.TuneMetrics(ctx, id, func(cfg map[string]string) (float64, map[string]float64, error) {
		c, err := k.space.FromLabels(cfg)
		if err != nil {
			return 0, nil, err
		}
		times := measureSorted(c)
		if len(opts.Objectives) == 0 {
			return times[len(times)/2], nil, nil
		}
		value, metrics := kernelMetrics(k.space, c, times)
		return value, metrics, nil
	}, budget, batch, 10*time.Minute)
	if err != nil {
		fmt.Fprintln(os.Stderr, "livetune:", err)
		os.Exit(1)
	}

	report.Section(os.Stdout, "Tuned %s kernel remotely by measured wall time", kernelName)
	fmt.Printf("measured %d configurations in %v (session %s on %s)\n",
		*evals, time.Since(start).Round(time.Millisecond), id, baseURL)
	if len(info.ParetoFront) > 0 {
		tbl := report.Table{
			Title:   fmt.Sprintf("Pareto front for {%s} (%d points)", strings.Join(info.Objectives, ", "), len(info.ParetoFront)),
			Columns: append([]string{"configuration"}, info.Objectives...),
		}
		for _, r := range info.ParetoFront {
			row := []string{fmt.Sprint(r.Config)}
			for _, name := range info.Objectives {
				row = append(row, fmt.Sprintf("%.4g", r.Metrics[name]))
			}
			tbl.Add(row...)
		}
		tbl.Render(os.Stdout)
	} else {
		fmt.Printf("fastest: %v → %.3f ms\n", info.Best.Config, info.Best.Value*1e3)
	}
	if len(info.Importance) > 0 {
		fmt.Println("parameter importance (JS divergence):")
		for _, e := range info.Importance {
			fmt.Printf("  %-12s %.4f\n", e.Param, e.Score)
		}
	}
	if marginals {
		rep, err := cl.Importance(ctx, id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "livetune: importance:", err)
			return
		}
		fmt.Println("\nsurrogate beliefs (daemon-side fit):")
		for _, m := range rep.Marginals {
			fmt.Printf("%-12s importance %.4f", m.Param, m.Importance)
			for i, l := range m.Levels {
				if i == 3 {
					fmt.Print("  …")
					break
				}
				fmt.Printf("  %s ×%.2f", l.Label, l.Lift)
			}
			fmt.Println()
		}
	}
}
