package server

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpcautotune/hiperbot/internal/apps/huge"
	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/httpapi"
	"github.com/hpcautotune/hiperbot/internal/space"
)

// TestHugeSpaceSessionAskTell drives 200 ask/tell steps on the huge
// app (1.27e8-point constrained grid) through a store session — the
// acceptance criterion for large-space mode. The grid is never
// materialized: the session must auto-select the pool-free sampling
// engine (SampledPoolSize 0, no enumerated pool), and every candidate
// handed out must satisfy the constraint (huge.Evaluate panics
// otherwise).
func TestHugeSpaceSessionAskTell(t *testing.T) {
	store, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	sess, err := store.CreateWithSpace("huge", huge.Space(), nil, httpapi.SessionOptions{
		Seed: 7, InitialSamples: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Info().Strategy; got != "sampling" {
		t.Fatalf("strategy = %q, want sampling (large-space default)", got)
	}
	if n := sess.at.Tuner().SampledPoolSize(); n != 0 {
		t.Fatalf("sampling engine holds a %d-entry pool, want pool-free", n)
	}

	const steps = 200
	for sess.Info().Evaluations < steps {
		picks, _, err := sess.Suggest(1, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if len(picks) == 0 {
			t.Fatalf("suggest dried up at %d evaluations", sess.Info().Evaluations)
		}
		if _, err := sess.Observe(picks[0], huge.Evaluate(picks[0])); err != nil {
			t.Fatal(err)
		}
	}
	info := sess.Info()
	if info.Evaluations != steps {
		t.Fatalf("evaluations = %d, want %d", info.Evaluations, steps)
	}
	if info.Best == nil || info.Best.Value <= 0 {
		t.Fatalf("best = %+v, want a positive-valued observation", info.Best)
	}
	// The model phase must actually have engaged (not all initial).
	if info.Phase != "model" {
		t.Fatalf("phase = %q after %d evals, want model", info.Phase, steps)
	}
}

// TestHugeSpaceConcurrentSuggestObserve hammers one huge-space
// session from 8 goroutines mixing batched Suggest and Observe — the
// sampled-pool/sampling-engine concurrency test from the issue. Run
// with -race. No configuration may be evaluated twice, and every
// suggested candidate must be valid.
func TestHugeSpaceConcurrentSuggestObserve(t *testing.T) {
	store, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	sp := huge.Space()
	sess, err := store.CreateWithSpace("huge-hammer", sp, nil, httpapi.SessionOptions{
		Seed: 11, InitialSamples: 16,
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		workers = 8
		target  = 200
	)
	var (
		mu        sync.Mutex
		evaluated = make(map[string]int)
		total     int
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := 1 + w%3
			for {
				mu.Lock()
				done := total >= target
				mu.Unlock()
				if done {
					return
				}
				picks, _, err := sess.Suggest(batch, time.Minute)
				if err != nil {
					t.Errorf("worker %d: suggest: %v", w, err)
					return
				}
				if len(picks) == 0 {
					return
				}
				for _, c := range picks {
					if !sp.Valid(c) {
						t.Errorf("worker %d: suggested invalid config %v", w, c)
						return
					}
					added, err := sess.Observe(c, huge.Evaluate(c))
					if err != nil {
						t.Errorf("worker %d: observe: %v", w, err)
						return
					}
					if added {
						mu.Lock()
						evaluated[sp.Key(c)]++
						total++
						mu.Unlock()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for key, n := range evaluated {
		if n != 1 {
			t.Fatalf("config %s evaluated %d times", key, n)
		}
	}
	if got := sess.Info().Evaluations; got < target {
		t.Fatalf("drove %d evaluations, want >= %d", got, target)
	}
}

// TestHugeSpacePoolRequiredStrategy asks for a pool-backed strategy
// on the oversized grid: with a positive pool cap the session gets a
// capped sampled pool; with pool_cap -1 (large-space mode disabled)
// creation fails with a clear error instead of attempting to
// enumerate 1.27e8 configurations.
func TestHugeSpacePoolRequiredStrategy(t *testing.T) {
	store, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	sess, err := store.CreateWithSpace("huge-pooled", huge.Space(), nil, httpapi.SessionOptions{
		Seed: 3, Strategy: "ranking", PoolCap: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.at.Tuner().SampledPoolSize(); got != 256 {
		t.Fatalf("sampled pool size = %d, want 256", got)
	}

	_, err = store.CreateWithSpace("huge-refused", huge.Space(), nil, httpapi.SessionOptions{
		Seed: 3, Strategy: "ranking", PoolCap: -1,
	})
	if err == nil {
		t.Fatal("creating a pool-backed session with large-space mode disabled succeeded")
	}
	if !strings.Contains(err.Error(), "PoolCap") && !strings.Contains(err.Error(), "enumerate") {
		t.Fatalf("error %q does not explain the large-space refusal", err)
	}
}

// TestStoreDefaultPoolCap: a store-level default pool cap applies to
// sessions created without an explicit pool_cap, is journaled in the
// session header, and therefore survives a restart under a store with
// a different default.
func TestStoreDefaultPoolCap(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStoreWithConfig(dir, StoreConfig{DefaultPoolCap: 64})
	if err != nil {
		t.Fatal(err)
	}

	sp := huge.Space()
	sess, err := store.Create("dflt", mustJSON(t, sp), httpapi.SessionOptions{
		Seed: 5, Strategy: "ranking",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.at.Tuner().SampledPoolSize(); got != 64 {
		t.Fatalf("sampled pool size = %d, want store default 64", got)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart with no default: the resumed session must keep its
	// journaled cap, not silently change shape.
	store2, err := OpenStoreWithConfig(dir, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	sess2, err := store2.Get("dflt")
	if err != nil {
		t.Fatal(err)
	}
	if got := sess2.at.Tuner().SampledPoolSize(); got != 64 {
		t.Fatalf("resumed sampled pool size = %d, want 64", got)
	}
}

// TestOpenStoreRejectsBadDefaults: a session default that create would
// reject fails the store open, instead of failing every create that
// falls back to it.
func TestOpenStoreRejectsBadDefaults(t *testing.T) {
	for name, cfg := range map[string]StoreConfig{
		"unknown objective":  {DefaultObjectives: []string{"bogus"}},
		"repeated objective": {DefaultObjectives: []string{"cost", "cost"}},
		"unknown liar":       {DefaultLiar: "optimistic"},
		"pool cap too large": {DefaultPoolCap: core.DefaultEnumerateLimit + 1},
	} {
		if store, err := OpenStoreWithConfig(t.TempDir(), cfg); err == nil {
			store.Close()
			t.Errorf("%s: OpenStoreWithConfig(%+v) succeeded", name, cfg)
		}
	}
	store, err := OpenStoreWithConfig(t.TempDir(), StoreConfig{
		DefaultObjectives: []string{"p95_latency_ms", "cost"}, DefaultLiar: "min", DefaultPoolCap: core.DefaultEnumerateLimit,
	})
	if err != nil {
		t.Fatalf("valid defaults: %v", err)
	}
	store.Close()
}

// TestRejectedCreateLeavesNoJournal: a create the tuner refuses
// (large-space mode disabled on an oversized grid) must not leave a
// header-only journal behind — a stale file would make the next
// OpenStore fail its resume scan and the daemon exit at boot.
func TestRejectedCreateLeavesNoJournal(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = store.Create("refused", mustJSON(t, huge.Space()), httpapi.SessionOptions{
		Strategy: "ranking", PoolCap: -1,
	})
	if err == nil {
		t.Fatal("oversized create with PoolCap -1 succeeded")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("reopening store after a rejected create: %v", err)
	}
	defer store2.Close()
	if got := len(store2.List()); got != 0 {
		t.Fatalf("store resumed %d sessions, want 0", got)
	}
}

func mustJSON(t *testing.T, sp *space.Space) []byte {
	t.Helper()
	b, err := sp.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}
