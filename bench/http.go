package main

import (
	"context"
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/hpcautotune/hiperbot/client"
	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/server"
	"github.com/hpcautotune/hiperbot/internal/space"
)

// httpSizes sizes one of the daemon workloads (serial, pending,
// durable). Evaluations per session are a cap: the measured pass is
// time-boxed and usually ends first.
type httpSizes struct {
	Sessions        int  `json:"sessions"`
	Clients         int  `json:"clients"`
	Batch           int  `json:"batch"`
	EvalsPerSession int  `json:"evals_per_session"`
	Params          int  `json:"params"`
	Levels          int  `json:"levels"`
	LeaseSeconds    int  `json:"lease_seconds"`
	Journaled       bool `json:"journaled"`
	MaxLiveSessions int  `json:"max_live_sessions"`
	// InitialSamples overrides the daemon's default of 20 initial
	// random samples per session (0 keeps it).
	InitialSamples int `json:"initial_samples"`
	Setups         int `json:"setups"`
}

// storeConfig is the store a workload runs against. Journaled stores
// use hiperbotd's defaults: interval fsync, 100 ms / 64 KiB group
// commit, compaction at 4096 events or 4 MiB.
func (sz httpSizes) storeConfig() server.StoreConfig {
	if !sz.Journaled {
		return server.StoreConfig{}
	}
	return server.StoreConfig{
		Fsync:           server.FsyncInterval,
		FlushInterval:   100 * time.Millisecond,
		FlushBytes:      64 << 10,
		SnapshotEvents:  4096,
		SnapshotBytes:   4 << 20,
		MaxLiveSessions: sz.MaxLiveSessions,
	}
}

// httpWorkload is one daemon workload run: the set-up, an untraced
// measured pass, and in a traced run the three replays of it.
type httpWorkload struct {
	e     *env
	name  string
	shape shape
	sz    httpSizes
	sp    *space.Space
	names []string
	lease time.Duration
	rep   *report
	setup int // set-ups made so far, for unique data directories
}

func runHTTP(ctx context.Context, e *env, name string, sh shape, sz httpSizes) (*report, error) {
	w := &httpWorkload{
		e: e, name: name, shape: sh, sz: sz,
		sp:    syntheticSpace(sz.Params, sz.Levels),
		lease: time.Duration(sz.LeaseSeconds) * time.Second,
		rep:   &report{Workload: name, Traced: e.trace, Sizes: sz},
	}
	for i := range sz.Sessions {
		w.names = append(w.names, fmt.Sprintf("%s-%04d", name, i))
	}
	if err := w.run(ctx); err != nil {
		return nil, err
	}
	return w.rep, nil
}

// options are session i's options: the daemon defaults (ranking
// engine, mean liar), the workload's initial-sample count, and a seed
// of its own.
func (w *httpWorkload) options(i int) client.SessionOptions {
	return client.SessionOptions{Seed: sessionSeed(w.e.seed, i), InitialSamples: w.sz.InitialSamples}
}

// coreOptions are the core.Options the daemon derives from options(i).
func (w *httpWorkload) coreOptions(i int) core.Options {
	return core.Options{Seed: sessionSeed(w.e.seed, i), InitialSamples: w.sz.InitialSamples}
}

func (w *httpWorkload) dataDir() string {
	if !w.sz.Journaled {
		return ""
	}
	w.setup++
	return filepath.Join(w.e.dir, fmt.Sprintf("%s-%d", w.name, w.setup))
}

// startSessions opens a store, serves it and creates the workload's
// sessions over HTTP.
func (w *httpWorkload) startSessions(ctx context.Context, tr *spanLog) (*daemon, error) {
	d, err := startDaemon(w.dataDir(), w.sz.storeConfig(), tr)
	if err != nil {
		return nil, err
	}
	for i, id := range w.names {
		if _, err := d.cl.CreateSessionFromSpace(ctx, id, w.sp, w.options(i)); err != nil {
			d.discard()
			return nil, fmt.Errorf("create %s: %w", id, err)
		}
	}
	return d, nil
}

func (w *httpWorkload) plan(targets []int, deadline time.Time) plan {
	return plan{
		sp: w.sp, shape: w.shape, sessions: w.sz.Sessions, clients: w.sz.Clients,
		batch: w.sz.Batch, targets: targets, deadline: deadline,
		record: w.shape == perSession && w.sz.Batch == 1,
	}
}

func (w *httpWorkload) run(ctx context.Context) error {
	rep := w.rep
	// Set-up is repeated and its median reported; the last daemon
	// serves the measured pass.
	var setups []time.Duration
	var d *daemon
	for k := range w.sz.Setups {
		if d != nil {
			if err := d.discard(); err != nil {
				return err
			}
		}
		start := time.Now()
		var err error
		if d, err = w.startSessions(ctx, nil); err != nil {
			return err
		}
		setups = append(setups, time.Since(start))
		rep.timed(fmt.Sprintf("setup_%d", k+1), start)
	}
	defer d.discard() // error paths; discarding twice is harmless

	targets := make([]int, w.sz.Sessions)
	for i := range targets {
		targets[i] = w.sz.EvalsPerSession
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	res := drive(ctx, w.plan(targets, start.Add(w.e.seconds)), &httpBackend{cl: d.cl, sp: w.sp, ids: w.names, lease: w.lease})
	rep.timed("measured", start)
	runtime.ReadMemStats(&m1)
	heap := heapMB()
	stats := d.store.Stats()

	rep.add("evals_per_s", float64(res.added)/res.wall.Seconds(), "1/s")
	rep.add("ask_p50_ms", res.ask.quantile(0.50), "ms")
	rep.add("observe_p50_ms", res.observe.quantile(0.50), "ms")
	rep.add("setup_s", median(seconds(setups)), "s")
	rep.add("heap_mb", heap, "MB")
	rep.add("ask_p99_ms", res.ask.quantile(0.99), "ms")
	rep.add("observe_p99_ms", res.observe.quantile(0.99), "ms")
	rep.add("ask_samples", float64(res.ask.len()), "count")
	rep.add("evaluations", float64(res.added), "count")
	rep.add("error_rate", ratio(res.failed, res.attempted), "ratio")
	rep.add("dup_rate", ratio(res.dups, res.suggested), "ratio")
	rep.add("runtime.alloc_bytes_per_eval", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(max(res.added, 1)), "bytes")
	rep.add("runtime.gc_pause_ms_total", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms")
	rep.add("server.rehydrations", float64(stats.Rehydrations), "count")
	rep.add("server.evictions", float64(stats.Evictions), "count")
	rep.add("server.compactions", float64(stats.Compactions), "count")
	journal, err := dirBytes(d.dir)
	if err != nil {
		return err
	}
	rep.add("server.journal_bytes_per_eval", float64(journal)/float64(max(res.added, 1)), "bytes")
	rep.Attempted, rep.Failed = res.attempted, res.failed
	if res.firstErr != nil {
		rep.FirstError = res.firstErr.Error()
	}

	rep.check("evaluations_done", res.added > 0, fmt.Sprintf("%d evaluations", res.added))
	rep.check(noDuplicates(res, stats.DuplicateSuggestions))
	if res.seqs != nil {
		start := time.Now()
		rep.check(w.matchesDirectTuner(res.seqs))
		rep.timed("gate_direct_tuner", start)
	}
	if w.sz.Journaled {
		if err := w.checkRestart(d, res.added); err != nil {
			return err
		}
	}
	if err := d.discard(); err != nil {
		return err
	}
	if w.e.trace {
		return w.traced(ctx, res)
	}
	return nil
}

// noDuplicates is the gate that no session handed out a configuration
// twice, counted by the clients and by the daemon.
func noDuplicates(res *passResult, daemonDups int64) (string, bool, string) {
	return "no_duplicates", res.dups == 0 && daemonDups == 0,
		fmt.Sprintf("%d of %d suggestions repeated (daemon counts %d)", res.dups, res.suggested, daemonDups)
}

// matchesDirectTuner replays every session with a core.Tuner built
// from the same seed and options, stepping it as often as the session
// was asked, and checks the suggestion sequences are bit-identical.
func (w *httpWorkload) matchesDirectTuner(seqs [][]space.Config) (string, bool, string) {
	errs := make([]error, len(seqs))
	var wg sync.WaitGroup
	for i, seq := range seqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tn, err := core.NewTuner(w.sp, objective, w.coreOptions(i))
			if err != nil {
				errs[i] = err
				return
			}
			for n, want := range seq {
				obs, err := tn.Step()
				if err != nil {
					errs[i] = err
					return
				}
				if !obs.Config.Equal(want) {
					errs[i] = fmt.Errorf("session %d step %d: daemon suggested %v, tuner %v", i, n, want, obs.Config)
					return
				}
			}
		}()
	}
	wg.Wait()
	n := 0
	for i, err := range errs {
		if err != nil {
			return "matches_direct_tuner", false, err.Error()
		}
		n += len(seqs[i])
	}
	return "matches_direct_tuner", true, fmt.Sprintf("%d suggestions over %d sessions", n, len(seqs))
}

// checkRestart closes the daemon, reopens its data directory, and
// checks that every acknowledged evaluation is back.
func (w *httpWorkload) checkRestart(d *daemon, added int64) error {
	jerrs := d.store.JournalErrors()
	if err := d.close(); err != nil {
		return fmt.Errorf("close store: %w", err)
	}
	start := time.Now()
	st, err := server.OpenStoreWithConfig(d.dir, w.sz.storeConfig())
	if err != nil {
		return fmt.Errorf("reopen store: %w", err)
	}
	w.rep.add("restart_s", time.Since(start).Seconds(), "s")
	w.rep.timed("restart", start)
	stats := st.Stats()
	jerrs = append(jerrs, st.JournalErrors()...)
	if err := st.Close(); err != nil {
		return fmt.Errorf("close reopened store: %w", err)
	}
	w.rep.check("restart_keeps_evaluations", stats.Evaluations == added,
		fmt.Sprintf("%d acknowledged, %d after reopen", added, stats.Evaluations))
	w.rep.check("no_journal_errors", len(jerrs) == 0, fmt.Sprintf("%d journal errors", len(jerrs)))
	return nil
}

func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// dirBytes sums the sizes of the regular files under dir ("" = 0).
func dirBytes(dir string) (int64, error) {
	if dir == "" {
		return 0, nil
	}
	var n int64
	err := filepath.WalkDir(dir, func(_ string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		info, err := de.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

func ratio(n, of int64) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

// sessionSeed derives session i's tuner seed from the run seed
// (splitmix64), so every session of every seed explores differently.
func sessionSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
