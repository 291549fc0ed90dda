package server

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/hpcautotune/hiperbot/internal/httpapi"
	"github.com/hpcautotune/hiperbot/internal/space"
)

// TestStoreConcurrentLifecycle hammers the sharded store from many
// goroutines mixing Create, Get, Suggest, Observe, Delete, and the
// lock-free read paths (List/Info/Len/Evaluations/JournalErrors) —
// run with -race. The shard striping must keep every operation
// linearizable per id: a created session is immediately Get-able, a
// deleted one immediately gone. The journaled store caps live sessions
// at 2, so create, evict, rehydrate and delete race each other there,
// and every handle must stay the session's one *Session throughout.
func TestStoreConcurrentLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(t *testing.T) (*Store, error)
	}{
		{"memory", func(*testing.T) (*Store, error) { return OpenStore("") }},
		{"journaled-cap2", func(t *testing.T) (*Store, error) {
			return OpenStoreWithConfig(t.TempDir(), StoreConfig{MaxLiveSessions: 2})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := tc.open(t)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			testStoreConcurrentLifecycle(t, store)
		})
	}
}

func testStoreConcurrentLifecycle(t *testing.T, store *Store) {
	sp := space.New(
		space.DiscreteInts("x", 0, 1, 2, 3, 4, 5, 6, 7),
		space.DiscreteInts("y", 0, 1, 2, 3, 4, 5, 6, 7),
	)
	value := func(c space.Config) float64 {
		return (c[0]-3)*(c[0]-3) + (c[1]-5)*(c[1]-5)
	}

	const (
		workers     = 8
		perWorker   = 6
		evalsPerSes = 4
	)

	// Readers spin over every lock-free surface until the writers are
	// done; with -race this is what catches a snapshot or shard map
	// torn by a concurrent mutation.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, s := range store.List() {
					info := s.Info()
					if info.Evaluations < 0 {
						t.Error("negative evaluations in snapshot")
						return
					}
				}
				_ = store.Len()
				_ = store.Stats()
				_ = store.JournalErrors()
			}
		}()
	}

	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for j := 0; j < perWorker; j++ {
				id := fmt.Sprintf("w%d-%d", w, j)
				sess, err := store.CreateWithSpace(id, sp, nil, httpapi.SessionOptions{
					Seed: uint64(w*100 + j), InitialSamples: 2,
				})
				if err != nil {
					t.Errorf("create %s: %v", id, err)
					return
				}
				for k := 0; k < evalsPerSes; k++ {
					picks, _, err := sess.Suggest(1, time.Minute)
					if err != nil || len(picks) == 0 {
						t.Errorf("suggest %s: picks=%d err=%v", id, len(picks), err)
						return
					}
					if _, err := sess.Observe(picks[0], value(picks[0])); err != nil {
						t.Errorf("observe %s: %v", id, err)
						return
					}
				}
				if got, err := store.Get(id); err != nil || got != sess {
					t.Errorf("get %s after create: %v", id, err)
					return
				}
				if j%2 == 0 {
					if err := store.Delete(id); err != nil {
						t.Errorf("delete %s: %v", id, err)
						return
					}
					if _, err := store.Get(id); err == nil {
						t.Errorf("get %s after delete succeeded", id)
						return
					}
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}

	want := workers * perWorker / 2 // every even j was deleted
	if store.Len() != want {
		t.Fatalf("store holds %d sessions, want %d", store.Len(), want)
	}
	wantEvals := int64(want * evalsPerSes)
	if got := store.Stats().Evaluations; got != wantEvals {
		t.Fatalf("store reports %d evaluations, want %d", got, wantEvals)
	}
}

// TestDeleteRacingCreateKeepsJournal races Delete("x") against a
// create of the same name that retries on ErrExists, makes one
// acknowledged observe on the new session, and reopens the store: the
// new session and its observation must survive every round. Delete
// frees the id only after it has removed the files, so it can never
// remove a journal that a create of the same name has written.
func TestDeleteRacingCreateKeepsJournal(t *testing.T) {
	dir := t.TempDir()
	sp := testSpace()
	opts := httpapi.SessionOptions{Seed: 1, InitialSamples: 2}
	const rounds = 300
	lost := 0
	for r := 0; r < rounds; r++ {
		store, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.CreateWithSpace("x", sp, nil, opts); err != nil {
			t.Fatal(err)
		}
		var (
			wg                   sync.WaitGroup
			created              *Session
			createErr, deleteErr error
		)
		wg.Add(2)
		go func() {
			defer wg.Done()
			deleteErr = store.Delete("x")
		}()
		go func() {
			defer wg.Done()
			for {
				created, createErr = store.CreateWithSpace("x", sp, nil, opts)
				if !errors.Is(createErr, ErrExists) {
					return
				}
				runtime.Gosched()
			}
		}()
		wg.Wait()
		if deleteErr != nil || createErr != nil {
			t.Fatalf("round %d: delete: %v, create: %v", r, deleteErr, createErr)
		}
		if _, err := created.Observe(space.Config{1, 2}, 0); err != nil {
			t.Fatalf("round %d: observe: %v", r, err)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if s, err := reopened.Get("x"); err != nil || s.Snapshot().Evaluations != 1 {
			lost++
		}
		reopened.Delete("x")
		if err := reopened.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d rounds lost the re-created session or its observation", lost, rounds)
	}
}

// TestEvictedSessionKeepsConstraint: a session an embedding store
// created with a constrained space keeps the constraint through
// eviction and rehydration, and rejects a result the constraint
// forbids. The journal header carries no constraint, so rehydration
// must keep the session's own space rather than parse it again.
func TestEvictedSessionKeepsConstraint(t *testing.T) {
	store, err := OpenStoreWithConfig(t.TempDir(), StoreConfig{MaxLiveSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	constrained := testSpace().WithConstraint(func(c space.Config) bool { return c[0]+c[1] <= 3 })
	opts := httpapi.SessionOptions{Seed: 1, InitialSamples: 2}
	if _, err := store.CreateWithSpace("c", constrained, nil, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := store.CreateWithSpace("other", testSpace(), nil, opts); err != nil {
		t.Fatal(err)
	}
	if n := store.Stats().Evictions; n != 1 {
		t.Fatalf("evictions = %d, want 1 under cap 1", n)
	}
	sess, err := store.Get("c")
	if err != nil {
		t.Fatal(err)
	}
	if n := store.Stats().Rehydrations; n != 1 {
		t.Fatalf("rehydrations = %d, want 1", n)
	}
	var invalid *InvalidConfigError
	if _, err := sess.Observe(space.Config{3, 3}, 1); !errors.As(err, &invalid) {
		t.Fatalf("observe {3,3} after rehydration: err = %v, want an *InvalidConfigError", err)
	}
	if _, err := sess.Observe(space.Config{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
}

// TestSessionHandleSurvivesEviction: the *Session CreateWithSpace
// returns stays usable after its session is evicted. Its next call
// rehydrates the session in place, and Store.Get returns that same
// pointer.
func TestSessionHandleSurvivesEviction(t *testing.T) {
	store, err := OpenStoreWithConfig(t.TempDir(), StoreConfig{MaxLiveSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	opts := httpapi.SessionOptions{Seed: 1, InitialSamples: 2}
	sess, err := store.CreateWithSpace("a", testSpace(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Observe(space.Config{0, 0}, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := store.CreateWithSpace("b", testSpace(), nil, opts); err != nil {
		t.Fatal(err)
	}
	if n := store.Stats().Evictions; n != 1 {
		t.Fatalf("evictions = %d, want 1 under cap 1", n)
	}
	picks, _, err := sess.Suggest(1, time.Minute)
	if err != nil || len(picks) != 1 {
		t.Fatalf("suggest on the evicted session's handle: picks = %v, err = %v", picks, err)
	}
	if got, err := store.Get("a"); err != nil || got != sess {
		t.Fatalf("Get after rehydration = %p, %v; want the create handle %p", got, err, sess)
	}
	if info := sess.Info(); info.Evicted || info.Evaluations != 1 {
		t.Fatalf("rehydrated info = %+v, want in memory with 1 evaluation", info)
	}
	if n := store.Stats().Rehydrations; n != 1 {
		t.Fatalf("rehydrations = %d, want 1", n)
	}
}

// TestJournalBestSoFarAcrossRestart: a session's journal keeps its
// running best across a restart: the first event after the resume
// reports the resumed history's best, not its own worse value.
func TestJournalBestSoFarAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	opts := httpapi.SessionOptions{Seed: 1, InitialSamples: 2}
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := store.CreateWithSpace("best", testSpace(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []float64{0, 5} {
		if _, err := sess.Observe(space.Config{float64(i), 0}, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store, err = OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if sess, err = store.Get("best"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Observe(space.Config{2, 0}, 9); err != nil {
		t.Fatal(err)
	}
	tail, err := readJournalFile(filepath.Join(dir, "best.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for _, ev := range tail.events {
		got = append(got, ev.BestSoFar)
	}
	if want := []float64{0, 0, 0}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("journal best_so_far = %v, want %v", got, want)
	}
}

// TestInfoDoesNotBlockBehindMutation is the regression test for the
// split session lock: Info must return (serving the last published
// snapshot) while a mutation holds the session write lock — a status
// poll never serializes behind a long model-guided Suggest.
func TestInfoDoesNotBlockBehindMutation(t *testing.T) {
	store, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sp := space.New(
		space.DiscreteInts("x", 0, 1, 2, 3),
		space.DiscreteInts("y", 0, 1, 2, 3),
	)
	sess, err := store.CreateWithSpace("held", sp, nil, httpapi.SessionOptions{
		Seed: 3, InitialSamples: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Put some real progress in the snapshot first.
	for k := 0; k < 3; k++ {
		picks, _, err := sess.Suggest(1, time.Minute)
		if err != nil || len(picks) == 0 {
			t.Fatalf("suggest: picks=%d err=%v", len(picks), err)
		}
		if _, err := sess.Observe(picks[0], float64(k)); err != nil {
			t.Fatal(err)
		}
	}

	// Hold the write lock, standing in for a long-running Suggest.
	sess.mu.Lock()
	done := make(chan httpapi.SessionInfo, 1)
	go func() { done <- sess.Info() }()
	select {
	case info := <-done:
		if info.ID != "held" || info.Evaluations != 3 {
			t.Errorf("stale snapshot = %+v, want id=held evaluations=3", info)
		}
	case <-time.After(2 * time.Second):
		t.Error("Info blocked behind a held session write lock")
	}
	sess.mu.Unlock()
	if t.Failed() {
		t.FailNow()
	}

	// With the lock free again, Info refreshes the snapshot in place.
	if _, err := sess.Observe(space.Config{3, 3}, 9); err != nil {
		t.Fatal(err)
	}
	if info := sess.Info(); info.Evaluations != 4 {
		t.Fatalf("refreshed info reports %d evaluations, want 4", info.Evaluations)
	}
}
