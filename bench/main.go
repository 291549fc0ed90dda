// Command bench is the repository's benchmark. One process holds an
// in-process hiperbotd (the real server.New handler over loopback
// HTTP, as cmd/loadgen runs it) and the tuning library, and drives one
// or more workloads as closed loops of at most two clients:
//
//	bash bench/run.sh --workload serial --seed 1 --seconds 20 --trace 0
//
// It prints one line per metric ("workload metric value unit") and
// per correctness gate, writes a JSON record of the run with the host
// it ran on, and ends with one JSON summary line per workload. With
// --trace 1 each workload is also replayed through traced passes and
// the summary carries the per-layer metrics; the spans are written as
// JSON lines at exit. The exit code is non-zero when a gate fails.
// README.md describes the workloads, the metrics and the comparison
// protocol.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// env is what a workload run is given.
type env struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	short   bool
	dir     string   // where the run's journaled stores are created
	spans   *spanLog // nil when untraced
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(ctx context.Context, e *env) (*report, error)
}

var workloads = []workload{
	{"serial", func(ctx context.Context, e *env) (*report, error) {
		sz := httpSizes{Sessions: 2, Clients: 2, Batch: 1, EvalsPerSession: 12000, Params: 5, Levels: 8, LeaseSeconds: 60, Setups: 15}
		if e.short {
			sz.EvalsPerSession, sz.Setups = 30, 2
		}
		return runHTTP(ctx, e, "serial", perSession, sz)
	}},
	{"pending", func(ctx context.Context, e *env) (*report, error) {
		sz := httpSizes{Sessions: 2, Clients: 2, Batch: 4, EvalsPerSession: 9600, Params: 5, Levels: 8, LeaseSeconds: 60, Setups: 15}
		if e.short {
			sz.EvalsPerSession, sz.Setups = 40, 2
		}
		return runHTTP(ctx, e, "pending", perSession, sz)
	}},
	{"durable", func(ctx context.Context, e *env) (*report, error) {
		sz := httpSizes{Sessions: 200, Clients: 2, Batch: 8, EvalsPerSession: 192, Params: 5, Levels: 8, LeaseSeconds: 60,
			Journaled: true, MaxLiveSessions: 64, InitialSamples: 200, Setups: 3}
		if e.short {
			sz.Sessions, sz.MaxLiveSessions, sz.EvalsPerSession, sz.Setups = 12, 4, 16, 2
		}
		return runHTTP(ctx, e, "durable", roundRobin, sz)
	}},
	{"paper", func(ctx context.Context, e *env) (*report, error) {
		sz := defaultPaperSizes
		if e.short {
			sz = paperSizes{KripkeSeeds: 2, KripkeBudget: 400, C40Seeds: 1, C40Budget: 30, Setups: 2}
		}
		return runPaper(ctx, e, sz)
	}},
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; it returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names   = fs.String("workload", "all", "comma-separated workloads to run: serial, pending, durable, paper, or all")
		seed    = fs.Uint64("seed", 1, "seed the workload inputs are derived from")
		secs    = fs.Float64("seconds", 20, "length of each time-boxed measured pass")
		traced  = fs.Int("trace", 0, "1 = also replay each workload through traced passes and report per-layer metrics")
		short   = fs.Bool("short", false, "small workload sizes, for tests")
		spans   = fs.String("spans", filepath.Join(".bench_build", "spans.jsonl"), "where a traced run writes its spans (JSON lines)")
		recPath = fs.String("record", filepath.Join(".bench_build", "record.json"), "where the JSON record of the run is written")
		workDir = fs.String("workdir", ".bench_build", "directory for the journaled stores of the run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *secs <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	var selected []workload
	for _, n := range strings.Split(*names, ",") {
		n = strings.TrimSpace(n)
		found := false
		for _, w := range workloads {
			if n == "all" || n == w.name {
				selected = append(selected, w)
				found = true
			}
		}
		if !found {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", n)
			return 2
		}
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	if *traced == 1 {
		if err := os.Remove(*spans); err != nil && !os.IsNotExist(err) {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}

	rec := record{Host: hostInfo(), Seed: *seed, Seconds: *secs, Trace: *traced == 1, Short: *short}
	code := 0
	for _, w := range selected {
		e := &env{seed: *seed, seconds: time.Duration(*secs * float64(time.Second)), trace: *traced == 1, short: *short, dir: dir}
		if e.trace {
			e.spans = newSpanLog(w.name)
		}
		rep, err := w.run(ctx, e)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if e.trace {
			if err := writeSpans(*spans, e.spans.all()); err != nil {
				fmt.Fprintf(stderr, "bench: writing spans: %v\n", err)
				return 1
			}
		}
		rec.Reports = append(rec.Reports, rep)
		printReport(stdout, rep)
		if err := writeRecord(*recPath, rec); err != nil {
			fmt.Fprintf(stderr, "bench: writing record: %v\n", err)
			return 1
		}
		if err := printSummary(stdout, rep); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if !rep.correct() {
			code = 1
		}
	}
	return code
}

// record is the JSON record of one invocation.
type record struct {
	Host    host      `json:"host"`
	Seed    uint64    `json:"seed"`
	Seconds float64   `json:"seconds"`
	Trace   bool      `json:"trace"`
	Short   bool      `json:"short"`
	Reports []*report `json:"reports"`
}

func writeRecord(path string, rec record) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReport writes one line per metric and per gate.
func printReport(w io.Writer, rep *report) {
	for _, m := range rep.Metrics {
		fmt.Fprintf(w, "%s %s %v %s\n", rep.Workload, m.Name, m.Value, m.Unit)
	}
	for _, g := range rep.Gates {
		status := "ok"
		if !g.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "%s gate %s %s: %s\n", rep.Workload, g.Name, status, g.Detail)
	}
	if rep.FirstError != "" {
		fmt.Fprintf(w, "%s first_error %s\n", rep.Workload, rep.FirstError)
	}
}

// summaryMetric is one entry of the summary line's metrics object.
type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printSummary writes the run's one-line JSON summary: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func printSummary(w io.Writer, rep *report) error {
	defs := endToEnd
	if rep.Traced {
		defs = perLayer
	}
	metrics := make(map[string]summaryMetric, len(defs))
	for _, d := range defs {
		v, ok := rep.value(d.Name)
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", rep.Workload, d.Name)
		}
		metrics[d.Name] = summaryMetric{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                     `json:"correct"`
		Attempted int64                    `json:"attempted"`
		Failed    int64                    `json:"failed"`
		Metrics   map[string]summaryMetric `json:"metrics"`
	}{rep.correct(), rep.Attempted, rep.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
