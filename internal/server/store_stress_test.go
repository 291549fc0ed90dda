package server

import (
	"fmt"
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
// deleted one immediately gone.
func TestStoreConcurrentLifecycle(t *testing.T) {
	store, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

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
