package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"github.com/hpcautotune/hiperbot/internal/apps/compile40"
	"github.com/hpcautotune/hiperbot/internal/apps/kripke"
	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/dataset"
	"github.com/hpcautotune/hiperbot/internal/space"
)

// paperSizes sizes the paper workload: the library driven through
// ask/tell with no HTTP, on the paper's Kripke execution-time dataset
// and on the 40-flag compile40 app under the grouped and flat sampling
// engines.
type paperSizes struct {
	KripkeSeeds  int `json:"kripke_seeds"`
	KripkeBudget int `json:"kripke_budget"`
	C40Seeds     int `json:"compile40_seeds"`
	C40Budget    int `json:"compile40_budget"`
	Setups       int `json:"setups"`
}

// campaign is one tuning run of the paper workload.
type campaign struct {
	kind     string // "kripke", "grouped" or "sampling"
	sp       *space.Space
	obj      core.Objective
	opts     core.Options
	budget   int
	target   float64 // the exhaustive best, for evaluations-to-best (-Inf: none)
	poolRows int
	tn       *core.Tuner
	// unitStart marks the first run of a unit: one compile40 seed under
	// both engines plus its share of the Kripke seeds.
	unitStart bool
}

// drive runs the campaign's budget through ask/tell on tn, timing each
// call, and returns the time it took.
func (c *campaign) drive(tn *core.Tuner, ask, tell *samples) (time.Duration, error) {
	start := time.Now()
	at := core.NewAskTell(tn)
	for range c.budget {
		t := time.Now()
		picks, err := at.Ask(1, 0, t)
		if err != nil {
			return 0, fmt.Errorf("%s ask: %w", c.kind, err)
		}
		ask.add(time.Since(t))
		v := c.obj(picks[0])
		t = time.Now()
		if _, err := at.Tell(picks[0], v); err != nil {
			return 0, fmt.Errorf("%s tell: %w", c.kind, err)
		}
		tell.add(time.Since(t))
	}
	return time.Since(start), nil
}

// found returns the evaluation at which the run first reached its
// target, or budget+1 when it never did.
func (c *campaign) found() int {
	h := c.tn.History()
	for i := range h.Len() {
		if h.At(i).Value <= c.target {
			return i + 1
		}
	}
	return c.budget + 1
}

// baselineJSON holds, among the measured baseline, the values the paper
// workload must reproduce exactly for the default seed and sizes
// ("paper_default_seed").
//
//go:embed baseline.json
var baselineJSON []byte

type paperRecorded struct {
	EvalsToBest  float64 `json:"evals_to_best"`
	BestAtBudget float64 `json:"best_at_budget"`
}

func runPaper(ctx context.Context, e *env, sz paperSizes) (*report, error) {
	rep := &report{Workload: "paper", Traced: e.trace, Sizes: sz}
	var setups []time.Duration
	var camps []*campaign
	for k := range sz.Setups {
		start := time.Now()
		var err error
		if camps, err = paperCampaigns(e.seed, sz); err != nil {
			return nil, err
		}
		for _, c := range camps {
			if c.tn, err = core.NewTuner(c.sp, c.obj, c.opts); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(start))
		rep.timed(fmt.Sprintf("setup_%d", k+1), start)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	p, err := measurePaper(ctx, camps, e.seconds)
	if err != nil {
		return nil, err
	}
	rep.timed("measured", start)
	runtime.ReadMemStats(&m1)
	ask, tell, evals := &p.ask, &p.tell, p.evals

	rep.add("evals_per_s", float64(evals)/p.wall.Seconds(), "1/s")
	rep.add("ask_p50_ms", ask.quantile(0.50), "ms")
	rep.add("observe_p50_ms", tell.quantile(0.50), "ms")
	rep.add("setup_s", median(seconds(setups)), "s")
	rep.add("heap_mb", heapMB(), "MB")
	rep.add("ask_p99_ms", ask.quantile(0.99), "ms")
	rep.add("observe_p99_ms", tell.quantile(0.99), "ms")
	rep.add("ask_samples", float64(ask.len()), "count")
	rep.add("evaluations", float64(evals), "count")
	rep.add("runtime.alloc_bytes_per_eval", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(max(evals, 1)), "bytes")
	rep.add("runtime.gc_pause_ms_total", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms")
	for _, name := range []string{"server.rehydrations", "server.evictions", "server.compactions", "server.non2xx"} {
		rep.add(name, 0, "count")
	}
	rep.add("server.journal_bytes_per_eval", 0, "bytes")
	rep.Attempted = 2 * evals

	rep.Metrics = append(rep.Metrics, paperQuality(camps, sz)...)
	reached := 0
	for _, c := range camps {
		if c.kind == "kripke" && c.found() <= c.budget {
			reached++
		}
	}
	rep.check("kripke_reaches_optimum", reached == sz.KripkeSeeds,
		fmt.Sprintf("%d of %d runs found the exhaustive best within %d evaluations", reached, sz.KripkeSeeds, sz.KripkeBudget))
	rep.check(asktellMatchesStep(camps))
	rep.check("repeats_match_first_run", p.differ == 0,
		fmt.Sprintf("%d of %d repeated runs evaluated another sequence", p.differ, p.repeats))
	if e.seed == 1 && sz == defaultPaperSizes {
		var rec struct {
			Paper paperRecorded `json:"paper_default_seed"`
		}
		if err := json.Unmarshal(baselineJSON, &rec); err != nil {
			return nil, fmt.Errorf("baseline.json: %w", err)
		}
		etb, _ := rep.value("evals_to_best")
		bab, _ := rep.value("best_at_budget")
		rep.check("matches_recorded", etb == rec.Paper.EvalsToBest && bab == rec.Paper.BestAtBudget,
			fmt.Sprintf("evals_to_best %v (recorded %v), best_at_budget %v (recorded %v)",
				etb, rec.Paper.EvalsToBest, bab, rec.Paper.BestAtBudget))
	}
	if e.trace {
		if err := tracePaper(ctx, e, rep, camps, p.firstPass); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// paperPass is what the paper workload's measured pass did.
type paperPass struct {
	wall      time.Duration // the whole pass
	firstPass time.Duration // the first run of every campaign, summed
	evals     int64
	repeats   int // runs after the first pass
	differ    int // repeated runs that evaluated another sequence than the first
	ask, tell samples
}

// measurePaper runs the campaigns on two workers, the most clients a
// workload has: every campaign once on the tuners built in set-up, then
// again from fresh tuners with the same seeds until the time is up. A
// single worker would follow the speed of the one CPU it happens to run
// on; two spread over both. Runs are handed out in order and the pass
// stops only at the first run of a unit, so whole units run and the mix
// of work is the same however many fit. A repeated run must evaluate
// what its first run did.
func measurePaper(ctx context.Context, camps []*campaign, seconds time.Duration) (*paperPass, error) {
	p := &paperPass{}
	type repeat struct {
		first, again *core.History
	}
	var (
		mu       sync.Mutex // guards everything below and p's counts
		next     int
		stop     bool
		firstErr error
		repeated []repeat
	)
	start := time.Now()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stop || firstErr != nil {
			return 0, false
		}
		if err := ctx.Err(); err != nil {
			firstErr = err
			return 0, false
		}
		k := next
		if k >= len(camps) && camps[k%len(camps)].unitStart && time.Since(start) >= seconds {
			stop = true
			return 0, false
		}
		next++
		return k, true
	}
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, ok := take(); ok; k, ok = take() {
				c := camps[k%len(camps)]
				tn := c.tn
				var err error
				if k >= len(camps) {
					tn, err = core.NewTuner(c.sp, c.obj, c.opts)
				}
				var d time.Duration
				if err == nil {
					d, err = c.drive(tn, &p.ask, &p.tell)
				}
				mu.Lock()
				switch {
				case err != nil:
					if firstErr == nil {
						firstErr = err
					}
				case k < len(camps):
					p.firstPass += d
				default:
					repeated = append(repeated, repeat{c.tn.History(), tn.History()})
				}
				if err == nil {
					p.evals += int64(c.budget)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}
	for _, r := range repeated {
		if !sameHistory(r.first, r.again) {
			p.differ++
		}
	}
	p.repeats = len(repeated)
	return p, nil
}

// paperCampaigns builds the workload's runs: Kripke from a freshly
// built dataset table (the table build is part of set-up), compile40
// from its analytic model.
func paperCampaigns(seed uint64, sz paperSizes) ([]*campaign, error) {
	tbl, err := kripkeTable()
	if err != nil {
		return nil, err
	}
	_, _, optimum := tbl.Best()
	cands := make([]space.Config, tbl.Len())
	for i := range cands {
		cands[i] = tbl.Config(i)
	}
	var kripkeRuns []*campaign
	for rep := range sz.KripkeSeeds {
		kripkeRuns = append(kripkeRuns, &campaign{
			kind: "kripke", sp: tbl.Space, obj: tbl.Objective(),
			opts:   core.Options{Seed: sessionSeed(seed, rep), Candidates: cands},
			budget: sz.KripkeBudget, target: optimum, poolRows: len(cands),
		})
	}
	// Unit u is compile40 seed u under both engines, then an equal share
	// of the Kripke seeds.
	var out []*campaign
	for rep := range sz.C40Seeds {
		s := sessionSeed(seed, 1000+rep)
		for _, kind := range []string{"grouped", "sampling"} {
			opts := core.Options{Seed: s, Engine: kind}
			if kind == "grouped" {
				opts.Groups = compile40.Groups
			}
			out = append(out, &campaign{
				kind: kind, sp: compile40.Space(), obj: compile40.Evaluate, opts: opts,
				budget: sz.C40Budget, target: math.Inf(-1), unitStart: kind == "grouped",
			})
		}
		out = append(out, kripkeRuns[rep*sz.KripkeSeeds/sz.C40Seeds:(rep+1)*sz.KripkeSeeds/sz.C40Seeds]...)
	}
	return out, nil
}

// kripkeTable evaluates the Kripke execution-time model over its whole
// grid into a fresh dataset table, as apps.Model.Table does once per
// process.
func kripkeTable() (*dataset.Table, error) {
	m := kripke.Exec()
	configs := m.Space().Enumerate()
	values := make([]float64, len(configs))
	for i, c := range configs {
		values[i] = m.Evaluate(c)
	}
	return dataset.New(m.Name(), m.Metric(), m.Space(), configs, values)
}

// paperQuality summarizes what the runs found: the mean evaluations the
// Kripke runs needed to reach the exhaustive best (unreached runs count
// budget+1), and the mean best compile40 value at the budget per engine.
func paperQuality(camps []*campaign, sz paperSizes) []metric {
	var etb, grouped, sampling float64
	for _, c := range camps {
		switch c.kind {
		case "kripke":
			etb += float64(c.found())
		case "grouped":
			grouped += c.tn.Best().Value
		case "sampling":
			sampling += c.tn.Best().Value
		}
	}
	return []metric{
		{"evals_to_best", etb / float64(max(sz.KripkeSeeds, 1)), "count"},
		{"best_at_budget", grouped / float64(max(sz.C40Seeds, 1)), "s"},
		{"sampling_best_at_budget", sampling / float64(max(sz.C40Seeds, 1)), "s"},
	}
}

// asktellMatchesStep replays the first run of each kind through
// Tuner.Run, the library's own loop, and checks that the ask/tell run
// evaluated exactly the same configurations.
func asktellMatchesStep(camps []*campaign) (string, bool, string) {
	const name = "asktell_matches_step"
	checked := map[string]bool{}
	for _, c := range camps {
		if checked[c.kind] {
			continue
		}
		checked[c.kind] = true
		tn, err := core.NewTuner(c.sp, c.obj, c.opts)
		if err == nil {
			_, err = tn.Run(c.budget)
		}
		if err != nil {
			return name, false, err.Error()
		}
		if !sameHistory(c.tn.History(), tn.History()) {
			return name, false, fmt.Sprintf("the first %s run differs from Tuner.Run", c.kind)
		}
	}
	return name, true, fmt.Sprintf("first run of each of %d kinds", len(checked))
}

// tracePaper replays every run through pass C's core backend (no
// importance republish: the library loop has none), checks that each
// replay evaluates the same configurations in the same order, and
// derives the core per-layer metrics.
func tracePaper(ctx context.Context, e *env, rep *report, camps []*campaign, untraced time.Duration) error {
	tr := e.spans
	var evals, rows int64
	start := time.Now()
	same := 0
	for _, c := range camps {
		s := &coreSession{build: func() (*core.Tuner, error) { return core.NewTuner(c.sp, c.obj, c.opts) }}
		be := &coreBackend{sessions: []*coreSession{s}, poolRows: c.poolRows, tr: tr}
		if err := be.create(s); err != nil {
			return err
		}
		for range c.budget {
			cfgs, err := be.suggest(ctx, 0, 1)
			if err != nil {
				return fmt.Errorf("%s traced ask: %w", c.kind, err)
			}
			if _, _, err := be.observe(ctx, 0, cfgs, []float64{c.obj(cfgs[0])}); err != nil {
				return fmt.Errorf("%s traced tell: %w", c.kind, err)
			}
		}
		if sameHistory(c.tn.History(), s.at.Tuner().History()) {
			same++
		}
		evals += int64(c.budget)
		rows += be.rows.Load()
	}
	wall := time.Since(start)
	rep.timed("pass_c", start)
	spans := tr.all()
	coreLayers(rep, indexSpans(spans), evals, rows)
	rep.add("trace.overhead_ratio", wall.Seconds()/untraced.Seconds(), "ratio")
	rep.check(nesting(spans))
	rep.check("pass_c_matches_untraced", same == len(camps), fmt.Sprintf("%d of %d runs evaluated the same sequence", same, len(camps)))
	return nil
}

// sameHistory reports whether two histories hold the same
// configurations in the same order.
func sameHistory(a, b *core.History) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Len() {
		if !a.At(i).Config.Equal(b.At(i).Config) {
			return false
		}
	}
	return true
}

var defaultPaperSizes = paperSizes{KripkeSeeds: 100, KripkeBudget: 400, C40Seeds: 10, C40Budget: 200, Setups: 15}
