package main

import (
	"sync"
	"time"

	"github.com/hpcautotune/hiperbot/internal/stats"
)

// metricDef names a metric and its unit. The two lists below are the
// ones BENCHMARK.json declares; the final JSON line of a run carries
// exactly one of them (end-to-end untraced, per-layer traced), and
// bench_test.go checks that the lists and the file agree.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the numbers a user of the daemon or the library sees,
// measured with tracing off, that repeat closely enough from run to
// run on the reference host to be bounded. Every workload reports
// every one of them.
var endToEnd = []metricDef{
	{"evals_per_s", "1/s"},
	{"setup_s", "s"},
	{"heap_mb", "MB"},
}

// perLayer are the numbers of a traced run that every workload
// defines: the client-side latencies, which swing too much between
// runs on a shared host to be bounded, and the per-module counts and
// times. Layer numbers that exist only on some workloads (the HTTP and
// store layers have no counterpart in the library-only paper workload;
// fits never run on durable) are printed and recorded but not listed.
var perLayer = []metricDef{
	{"ask_p50_ms", "ms"},
	{"ask_p99_ms", "ms"},
	{"observe_p50_ms", "ms"},
	{"observe_p99_ms", "ms"},
	{"core.new_tuner_ms_p50", "ms"},
	{"core.acquire_ms_p50", "ms"},
	{"core.acquire_ms_p99", "ms"},
	{"core.tell_ms_p50", "ms"},
	{"core.fit_fantasy_per_eval", "count"},
	{"core.fit_noop_ratio", "ratio"},
	{"core.rows_scored_per_eval", "count"},
	{"server.rehydrations", "count"},
	{"server.evictions", "count"},
	{"server.compactions", "count"},
	{"server.non2xx", "count"},
	{"server.journal_bytes_per_eval", "bytes"},
	{"runtime.alloc_bytes_per_eval", "bytes"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// metric is one measured value.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// gate is one correctness check of a run.
type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// phase is the wall time of one step of a run.
type phase struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// report is everything one workload run produced.
type report struct {
	Workload   string   `json:"workload"`
	Traced     bool     `json:"traced"`
	Sizes      any      `json:"sizes"`
	Metrics    []metric `json:"metrics"`
	Gates      []gate   `json:"gates"`
	Phases     []phase  `json:"phases"`
	Attempted  int64    `json:"attempted"`
	Failed     int64    `json:"failed"`
	FirstError string   `json:"first_error,omitempty"`
}

func (r *report) add(name string, value float64, unit string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: unit})
}

func (r *report) check(name string, ok bool, detail string) {
	r.Gates = append(r.Gates, gate{Name: name, OK: ok, Detail: detail})
}

func (r *report) timed(name string, start time.Time) {
	r.Phases = append(r.Phases, phase{Name: name, Seconds: time.Since(start).Seconds()})
}

func (r *report) correct() bool {
	for _, g := range r.Gates {
		if !g.OK {
			return false
		}
	}
	return len(r.Gates) > 0
}

func (r *report) value(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// samples collects latencies in milliseconds from concurrent clients.
type samples struct {
	mu sync.Mutex
	ms []float64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.ms = append(s.ms, ms(d))
	s.mu.Unlock()
}

func (s *samples) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ms)
}

// quantile returns the q-quantile, or 0 with no samples.
func (s *samples) quantile(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return quantile(s.ms, q)
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
