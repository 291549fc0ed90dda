// Command loadgen stress-drives a hiperbotd instance with M
// concurrent sessions × W workers per session, each running the
// ask/tell loop over HTTP against a synthetic objective, and reports
// throughput plus p50/p99 ask/observe latencies. It is the
// measurement harness behind the EXPERIMENTS.md daemon numbers and
// the CI smoke check.
//
//	loadgen -sessions 8 -workers 8 -evals 500          # self-contained (in-process daemon, in-memory store)
//	loadgen -server http://localhost:8080 -sessions 4  # against a running daemon
//	loadgen -roundrobin -sessions 5000 -workers 64 -data /tmp/lg \
//	        -max-live-sessions 256 -snapshot-events 4   # many-session eviction smoke
//	loadgen -peers http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083 \
//	        -roundrobin -sessions 30000 -workers 64     # cluster smoke: traffic round-robins over nodes
//
// In self-contained mode the daemon runs in-process; with -data empty
// the store is in-memory, so the numbers measure the serving stack
// (HTTP, store sharding, session locking, tuner hot path) without
// journal I/O. With -data set the store journals (and, with the
// snapshot/eviction flags, compacts and evicts) exactly like a real
// daemon. -roundrobin switches from W pinned workers per session to
// one global pool of W workers cycling over all sessions — the shape
// that drives session counts far past -max-live-sessions. loadgen
// exits non-zero when any request errored, no evaluations completed,
// any journal write failed, or the post-run heap exceeds -max-heap-mb,
// so it doubles as an end-to-end smoke test.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcautotune/hiperbot/client"
	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/httpapi"
	"github.com/hpcautotune/hiperbot/internal/server"
	"github.com/hpcautotune/hiperbot/internal/space"
	"github.com/hpcautotune/hiperbot/internal/stats"
)

func main() {
	// The session flags bind straight into one set of session options,
	// which every session copies with a seed of its own.
	var opts client.SessionOptions
	flag.Uint64Var(&opts.Seed, "seed", 1, "base session seed")
	flag.StringVar(&opts.Strategy, "strategy", "", "session strategy (empty = server default)")
	flag.Func("objectives", "comma-separated objective specs; sessions post multi-metric observations (e.g. p95_latency_ms,cost)", func(s string) error { opts.Objectives = httpapi.SplitList(s); return nil })
	flag.StringVar(&opts.Liar, "liar", "", "constant-liar policy for leased candidates: min, mean, or max (empty = server default)")
	flag.Func("groups", "parameter grouping for -strategy grouped, \"p0,p1;p2\" over the synthetic p0..pN names (empty = auto-propose)", func(s string) error { opts.Groups = core.ParseGroups(s); return nil })
	var (
		serverURL = flag.String("server", "", "daemon base URL (empty = run an in-process daemon over an in-memory store)")
		sessions  = flag.Int("sessions", 4, "concurrent tuning sessions (M)")
		workers   = flag.Int("workers", 8, "workers per session (W)")
		evals     = flag.Int("evals", 500, "target evaluations per session")
		batch     = flag.Int("batch", 1, "candidates per suggest call")
		params    = flag.Int("params", 5, "synthetic space dimensions")
		levels    = flag.Int("levels", 8, "levels per dimension")
		lease     = flag.Duration("lease", time.Minute, "candidate lease duration")
		maxDup    = flag.Float64("max-dup-rate", -1, "fail when the duplicate-suggestion fraction exceeds this (e.g. 0.001; <0 = report only)")
		keep      = flag.Bool("keep", false, "keep the sessions on the daemon after the run")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile (covers the in-process daemon too)")

		roundrobin = flag.Bool("roundrobin", false, "one global pool of -workers workers round-robins over all sessions (many-session mode) instead of pinning -workers per session")
		dataDir    = flag.String("data", "", "self-contained mode: journal directory for the in-process daemon (empty = in-memory store)")
		maxLive    = flag.Int("max-live-sessions", 0, "self-contained mode: cap on hydrated sessions; LRU-evict the rest to snapshots (0 = unlimited; needs -data)")
		snapEvents = flag.Int("snapshot-events", 0, "self-contained mode: journal-tail events that trigger snapshot compaction (0 = off)")
		snapBytes  = flag.Int("snapshot-bytes", 0, "self-contained mode: journal bytes that trigger snapshot compaction (0 = off)")
		maxHeapMB  = flag.Int("max-heap-mb", 0, "fail when the post-run heap (after GC) exceeds this many MB (0 = report only)")

		peers  = flag.String("peers", "", "comma-separated base URLs of a hiperbotd cluster; session creates and worker traffic round-robin over all nodes (mutually exclusive with -server)")
		minFwd = flag.Int64("min-forwarded", 0, "with -peers: fail unless the cluster forwarded at least this many requests in total (0 = report only)")
	)
	flag.Parse()
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *sessions < 1 || *workers < 1 || *evals < 1 || *batch < 1 || *params < 1 || *levels < 2 {
		fmt.Fprintln(os.Stderr, "loadgen: -sessions, -workers, -evals, -batch >= 1; -params >= 1; -levels >= 2")
		os.Exit(2)
	}

	peerURLs := httpapi.SplitList(*peers)
	if len(peerURLs) > 0 && *serverURL != "" {
		fmt.Fprintln(os.Stderr, "loadgen: -peers and -server are mutually exclusive")
		os.Exit(2)
	}

	var store *server.Store // non-nil in self-contained mode: end-of-run persistence checks
	var cls []*client.Client
	if len(peerURLs) > 0 {
		for _, u := range peerURLs {
			c, err := client.New(u, client.WithRetries(0))
			if err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
				os.Exit(1)
			}
			cls = append(cls, c)
		}
	} else {
		base := *serverURL
		if base == "" {
			var err error
			store, err = server.OpenStoreWithConfig(*dataDir, server.StoreConfig{
				SnapshotEvents:  *snapEvents,
				SnapshotBytes:   *snapBytes,
				MaxLiveSessions: *maxLive,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
				os.Exit(1)
			}
			defer store.Close()
			ts := httptest.NewServer(server.New(store, nil))
			defer ts.Close()
			base = ts.URL
		}
		cl, err := client.New(base, client.WithRetries(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		cls = []*client.Client{cl}
	}

	sp := syntheticSpace(*params, *levels)
	if size := poolSize(*params, *levels); *evals > size {
		fmt.Fprintf(os.Stderr, "loadgen: -evals %d exceeds the %d-configuration space (%d params × %d levels)\n",
			*evals, size, *params, *levels)
		os.Exit(2)
	}

	ctx := context.Background()
	ids := make([]string, *sessions)
	for i := range ids {
		// With -peers, creates round-robin over nodes; anonymous creates
		// always land on the receiving node (self-owned ids), so sessions
		// spread ~evenly across the cluster.
		so := opts
		so.Seed += uint64(i) * 7919
		id, err := cls[i%len(cls)].CreateSessionFromSpace(ctx, "", sp, so)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: create session %d: %v\n", i, err)
			os.Exit(1)
		}
		ids[i] = id
	}
	if !*keep {
		defer func() {
			for i, id := range ids {
				cls[i%len(cls)].DeleteSession(ctx, id) //nolint:errcheck // best-effort cleanup
			}
		}()
	}

	var (
		mu        sync.Mutex
		askLat    []float64 // milliseconds
		obsLat    []float64
		added     int64
		asks      int64
		observes  int64
		suggested int64 // candidates handed out across all suggests
		dups      int64 // candidates seen more than once per session
		errs      int64
		firstErr  error
	)
	// seen tracks, per session, every candidate key ever suggested.
	// With pending-aware ask/tell and leases outliving the (instant)
	// synthetic evaluations, no candidate should be handed out twice —
	// the duplicate rate is the tentpole's end-to-end success metric.
	seen := make(map[string]map[string]bool, len(ids))
	for _, id := range ids {
		seen[id] = make(map[string]bool)
	}
	record := func(lat *[]float64, d time.Duration) {
		mu.Lock()
		*lat = append(*lat, float64(d)/float64(time.Millisecond))
		mu.Unlock()
	}
	fail := func(err error) {
		mu.Lock()
		errs++
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	// round runs one suggest→observe cycle against a session through
	// the given node's client and reports whether the session is
	// finished (target reached or pool exhausted). Shared by both
	// worker shapes.
	round := func(cl *client.Client, id string) (finished bool, err error) {
		t0 := time.Now()
		sug, err := cl.Suggest(ctx, id, *batch, *lease)
		if err != nil {
			return false, fmt.Errorf("suggest %s: %w", id, err)
		}
		record(&askLat, time.Since(t0))
		mu.Lock()
		asks++
		mu.Unlock()
		if len(sug.Candidates) == 0 {
			return true, nil // pool exhausted (or fully leased by faster workers)
		}
		results := make([]client.Result, 0, len(sug.Candidates))
		for _, cfg := range sug.Candidates {
			c, err := sp.FromLabels(cfg)
			if err != nil {
				return false, fmt.Errorf("parse candidate %s: %w", id, err)
			}
			key := sp.Key(c)
			mu.Lock()
			suggested++
			if seen[id][key] {
				dups++
			} else {
				seen[id][key] = true
			}
			mu.Unlock()
			r := client.Result{Config: cfg, Value: objective(c)}
			if len(opts.Objectives) > 0 {
				r.Metrics = metrics(c)
			}
			results = append(results, r)
		}
		t1 := time.Now()
		resp, err := cl.Observe(ctx, id, results)
		if err != nil {
			return false, fmt.Errorf("observe %s: %w", id, err)
		}
		record(&obsLat, time.Since(t1))
		mu.Lock()
		observes++
		added += int64(resp.Added)
		mu.Unlock()
		return resp.Evaluations >= *evals, nil
	}

	start := time.Now()
	var wg sync.WaitGroup
	if *roundrobin {
		// Many-session shape: -workers is a global pool cycling over all
		// sessions, so 5000 sessions don't need 5000×W goroutines — and a
		// store capped with -max-live-sessions sees exactly the
		// evict-cold/rehydrate-on-return access pattern it is built for.
		var next atomic.Int64
		var remaining atomic.Int64
		remaining.Store(int64(len(ids)))
		done := make([]atomic.Bool, len(ids))
		for w := 0; w < *workers; w++ {
			wg.Add(1)
			// Workers pick their node by worker index, not session index,
			// so most calls land on a non-owner and exercise the cluster's
			// forwarding path.
			cl := cls[w%len(cls)]
			go func() {
				defer wg.Done()
				for remaining.Load() > 0 {
					i := int(next.Add(1)-1) % len(ids)
					if done[i].Load() {
						continue
					}
					finished, err := round(cl, ids[i])
					if err != nil {
						fail(err)
						return
					}
					if finished && done[i].CompareAndSwap(false, true) {
						remaining.Add(-1)
					}
				}
			}()
		}
	} else {
		for _, id := range ids {
			for w := 0; w < *workers; w++ {
				wg.Add(1)
				go func(cl *client.Client, id string) {
					defer wg.Done()
					for {
						finished, err := round(cl, id)
						if err != nil {
							fail(err)
							return
						}
						if finished {
							return
						}
					}
				}(cls[w%len(cls)], id)
			}
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	fmt.Printf("loadgen: %d sessions × %d workers, target %d evals/session, batch %d, space %d^%d\n",
		*sessions, *workers, *evals, *batch, *levels, *params)
	fmt.Printf("loadgen: %d evaluations (%d asks, %d observes) in %v — %.0f evals/s, %.0f requests/s\n",
		added, asks, observes, elapsed.Round(time.Millisecond),
		float64(added)/elapsed.Seconds(), float64(asks+observes)/elapsed.Seconds())
	printLatency("ask", askLat)
	printLatency("observe", obsLat)
	dupRate := 0.0
	if suggested > 0 {
		dupRate = float64(dups) / float64(suggested)
	}
	fmt.Printf("loadgen: %d candidates suggested, %d duplicate(s) — %.4f%% duplicate rate\n",
		suggested, dups, 100*dupRate)
	if errs > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d request error(s); first: %v\n", errs, firstErr)
		os.Exit(1)
	}
	if added == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: no evaluations completed")
		os.Exit(1)
	}
	if *maxDup >= 0 && dupRate > *maxDup {
		fmt.Fprintf(os.Stderr, "loadgen: duplicate rate %.4f%% exceeds -max-dup-rate %.4f%%\n",
			100*dupRate, 100**maxDup)
		os.Exit(1)
	}
	if len(peerURLs) > 0 {
		// Per-node accounting: session placement, forwarding counters,
		// heap — plus hard failures on journal errors and (with
		// -min-forwarded) on a cluster that never actually forwarded.
		var forwarded int64
		clusterBad := false
		for i, c := range cls {
			h, err := c.Health(ctx)
			if err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: health %s: %v\n", peerURLs[i], err)
				clusterBad = true
				continue
			}
			m, err := c.Metrics(ctx)
			if err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: metrics %s: %v\n", peerURLs[i], err)
				clusterBad = true
				continue
			}
			var fwd, hops int64
			if m.Cluster != nil {
				fwd, hops = m.Cluster.ForwardedRequests, m.Cluster.HopRejects
			}
			forwarded += fwd
			fmt.Printf("loadgen: node %s: %d sessions (%d live), forwarded %d, hop rejects %d, heap %.1f MB\n",
				peerURLs[i], m.Sessions, m.LiveSessions, fwd, hops, m.HeapAllocMB)
			if len(h.JournalErrors) > 0 {
				fmt.Fprintf(os.Stderr, "loadgen: node %s: %d journal error(s); first: %s\n",
					peerURLs[i], len(h.JournalErrors), h.JournalErrors[0])
				clusterBad = true
			}
		}
		fmt.Printf("loadgen: cluster forwarded %d request(s) total\n", forwarded)
		if clusterBad {
			os.Exit(1)
		}
		if *minFwd > 0 && forwarded < *minFwd {
			fmt.Fprintf(os.Stderr, "loadgen: %d forwarded request(s) below -min-forwarded %d\n", forwarded, *minFwd)
			os.Exit(1)
		}
	}
	if store != nil {
		ss := store.Stats()
		fmt.Printf("loadgen: store: %d sessions (%d live), %d compaction(s), %d eviction(s), %d rehydration(s)\n",
			ss.Sessions, ss.LiveSessions, ss.Compactions, ss.Evictions, ss.Rehydrations)
		if je := store.JournalErrors(); len(je) > 0 {
			fmt.Fprintf(os.Stderr, "loadgen: %d journal error(s); first: %s\n", len(je), je[0])
			os.Exit(1)
		}
		if *maxLive > 0 && ss.LiveSessions > *maxLive {
			fmt.Fprintf(os.Stderr, "loadgen: %d live sessions exceed -max-live-sessions %d\n", ss.LiveSessions, *maxLive)
			os.Exit(1)
		}
	}
	// Heap check last: everything the run allocated that the store
	// doesn't retain (latency samples, seen-sets) is still reachable
	// here, so this bounds the store's hot-set memory plus harness
	// overhead — an eviction regression (sessions never dropped) blows
	// well past any sane budget.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)
	fmt.Printf("loadgen: heap after GC: %.1f MB\n", heapMB)
	if *maxHeapMB > 0 && heapMB > float64(*maxHeapMB) {
		fmt.Fprintf(os.Stderr, "loadgen: heap %.1f MB exceeds -max-heap-mb %d\n", heapMB, *maxHeapMB)
		os.Exit(1)
	}
}

// printLatency renders one latency line: n, p50, p90, p99, max (ms).
func printLatency(name string, ms []float64) {
	if len(ms) == 0 {
		fmt.Printf("loadgen: %s latency: no samples\n", name)
		return
	}
	sort.Float64s(ms)
	fmt.Printf("loadgen: %-7s latency (ms): p50 %.3f  p90 %.3f  p99 %.3f  max %.3f  (n=%d)\n",
		name,
		stats.QuantileSorted(ms, 0.50),
		stats.QuantileSorted(ms, 0.90),
		stats.QuantileSorted(ms, 0.99),
		ms[len(ms)-1], len(ms))
}

// syntheticSpace builds a params-dimensional grid with levels integer
// values per dimension.
func syntheticSpace(params, levels int) *space.Space {
	ps := make([]space.Param, params)
	for d := 0; d < params; d++ {
		vals := make([]int, levels)
		for v := range vals {
			vals[v] = v
		}
		ps[d] = space.DiscreteInts(fmt.Sprintf("p%d", d), vals...)
	}
	return space.New(ps...)
}

func poolSize(params, levels int) int {
	size := 1
	for d := 0; d < params; d++ {
		if size > 1<<30/levels {
			return 1 << 30 // effectively unbounded for -evals purposes
		}
		size *= levels
	}
	return size
}

// metrics derives a deterministic multi-metric observation from the
// synthetic objective so -objectives sessions exercise the full
// multi-objective hot path (vector derivation, Pareto front
// maintenance, journaling) under load: every registered metric name
// is present, so any -objectives combination is servable.
func metrics(c space.Config) map[string]float64 {
	v := objective(c)
	var levels float64
	for _, l := range c {
		levels += l
	}
	return map[string]float64{
		"value":          v,
		"p95_latency_ms": 5 + 2*v,
		"p99_latency_ms": 9 + 3*v,
		"throughput_rps": 1000 / (1 + v),
		"error_rate":     v / (100 + v),
		"cost":           1 + levels/4,
	}
}

// objective is a deterministic multimodal penalty sum: each dimension
// prefers a different level, with a cross-term so the optimum is not
// separable. Lower is better; the global optimum is unique.
func objective(c space.Config) float64 {
	var v float64
	for d := range c {
		target := float64((3*d + 1) % 8)
		diff := c[d] - target
		v += diff * diff
	}
	for d := 1; d < len(c); d++ {
		if c[d] == c[d-1] {
			v += 0.5
		}
	}
	return v
}
