package server

import (
	"fmt"
	"testing"
	"time"

	"github.com/hpcautotune/hiperbot/internal/httpapi"
	"github.com/hpcautotune/hiperbot/internal/space"
)

// benchSpace is large enough (16^8 configs) that the tuner runs the
// pool-free sampling engine — the realistic shape for sessions that
// accumulate enough history for restart time to matter.
func benchSpace() *space.Space {
	levels := make([]int, 16)
	for i := range levels {
		levels[i] = i
	}
	names := []string{"p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"}
	params := make([]space.Param, len(names))
	for i, n := range names {
		params[i] = space.DiscreteInts(n, levels...)
	}
	return space.New(params...)
}

// benchConfig maps i to a distinct config: base-16 digits across the
// eight axes.
func benchConfig(i int) space.Config {
	c := make(space.Config, 8)
	for d := 0; d < 8; d++ {
		c[d] = float64(i % 16)
		i /= 16
	}
	return c
}

// seedBenchDir builds a data directory holding one session with
// nEvents observations, journaled under cfg. InitialSamples is set
// above nEvents so every observe (and the eventual resume) stays in
// the cheap initial phase: the benchmark then isolates persistence
// cost, not surrogate refits.
func seedBenchDir(b *testing.B, dir string, nEvents int, cfg StoreConfig) {
	b.Helper()
	store, err := OpenStoreWithConfig(dir, cfg)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := store.CreateWithSpace("bench", benchSpace(), nil,
		httpapi.SessionOptions{Seed: 1, InitialSamples: nEvents * 2})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < nEvents; i++ {
		if _, err := sess.Observe(benchConfig(i), float64(i%997)); err != nil {
			b.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}
}

// benchmarkStoreOpen measures a cold OpenStoreWithConfig on the seeded
// directory — the daemon-restart path.
func benchmarkStoreOpen(b *testing.B, nEvents int, seedCfg StoreConfig) {
	dir := b.TempDir()
	seedBenchDir(b, dir, nEvents, seedCfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store, err := OpenStoreWithConfig(dir, StoreConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if got := store.Len(); got != 1 {
			b.Fatalf("resumed %d sessions, want 1", got)
		}
		b.StopTimer()
		if err := store.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkStoreOpenFullReplay10k restarts from a 10k-line journal
// with no snapshot — the pre-compaction worst case: 10k JSON decodes
// plus 10k label-map parses before the history replay even starts.
func BenchmarkStoreOpenFullReplay10k(b *testing.B) {
	benchmarkStoreOpen(b, 10_000, StoreConfig{})
}

// BenchmarkStoreOpenSnapshot10k restarts the same 10k events from a
// snapshot (packed binary columns, one JSON line) plus an empty tail.
func BenchmarkStoreOpenSnapshot10k(b *testing.B) {
	benchmarkStoreOpen(b, 10_000, StoreConfig{SnapshotEvents: 10_000})
}

// BenchmarkStoreRehydrateEvict is the durable workload's store cycle
// in miniature: five journaled sessions on a 5-parameter, 8-level grid
// (32 768 candidates) under a live cap of four, visited round-robin
// through WithSession. Every op therefore rehydrates the session it
// visits (snapshot read, NewTuner, replay), evicts the least recently
// used one (compaction with its fsyncs), and asks Suggest(8) and
// observes all eight. The store runs hiperbotd's default durability:
// interval fsync and 64 KiB group commit. InitialSamples is above any
// history the loop reaches, so no surrogate is fit. Histories grow by
// eight observations per visit, so compare runs at one fixed
// -benchtime, such as 200x.
func BenchmarkStoreRehydrateEvict(b *testing.B) {
	const sessions = 5
	store, err := OpenStoreWithConfig(b.TempDir(), StoreConfig{
		Fsync:           FsyncInterval,
		FlushInterval:   100 * time.Millisecond,
		FlushBytes:      64 << 10,
		SnapshotEvents:  4096,
		SnapshotBytes:   4 << 20,
		MaxLiveSessions: sessions - 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	levels := []int{0, 1, 2, 3, 4, 5, 6, 7}
	sp := space.New(
		space.DiscreteInts("a", levels...), space.DiscreteInts("b", levels...), space.DiscreteInts("c", levels...),
		space.DiscreteInts("d", levels...), space.DiscreteInts("e", levels...),
	)
	ids := make([]string, sessions)
	for i := range ids {
		s, err := store.CreateWithSpace(fmt.Sprintf("s%d", i), sp, nil,
			httpapi.SessionOptions{Seed: uint64(i + 1), InitialSamples: sp.GridSize()})
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = s.ID()
	}
	visit := func(s *Session) error {
		picks, _, err := s.Suggest(8, time.Minute)
		if err != nil {
			return err
		}
		for _, c := range picks {
			if _, err := s.Observe(c, c[0]*c[0]+c[1]-c[2]); err != nil {
				return err
			}
		}
		return nil
	}
	before := store.Stats().Rehydrations
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.WithSession(ids[i%sessions], visit); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(store.Stats().Rehydrations-before)/float64(b.N), "rehydrations/op")
}
