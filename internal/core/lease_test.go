package core

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/hpcautotune/hiperbot/internal/space"
	"github.com/hpcautotune/hiperbot/internal/stats"
)

// leaseTestSpace is a 400-point grid, small enough that a random
// script reaches every lease state and big enough that batches of 8
// initial draws with several batches outstanding never exhaust it.
func leaseTestSpace() *space.Space {
	return space.New(
		space.DiscreteInts("a", 0, 1, 2, 3, 4),
		space.DiscreteInts("b", 0, 1, 2, 3, 4),
		space.DiscreteInts("c", 0, 1, 2, 3),
		space.DiscreteInts("d", 0, 1, 2, 3),
	)
}

func leaseTestValue(c space.Config) float64 {
	return (c[0]-3)*(c[0]-3) + (c[1]-1)*(c[1]-1) + 0.5*(c[2]-2)*(c[2]-2) + 0.25*c[3]
}

// smallSampledSpace is a 1 049 600-point grid, just past
// DefaultEnumerateLimit, whose constraint keeps 144 configurations:
// pool-backed engines get a SampledPool, and a refreshed pool overlaps
// the configurations leased from the old one.
func smallSampledSpace() *space.Space {
	levels := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	sp := space.New(
		space.DiscreteInts("a", levels(1024)...),
		space.DiscreteInts("b", levels(1025)...),
	)
	return sp.WithConstraint(func(c space.Config) bool { return c[0] < 12 && c[1] < 12 })
}

func smallSampledValue(c space.Config) float64 {
	return (c[0]-7)*(c[0]-7) + (c[1]-4)*(c[1]-4)
}

func newLeaseTestAskTell(t *testing.T, sp *space.Space, opts Options) *AskTell {
	t.Helper()
	tn, err := NewTuner(sp, func(space.Config) float64 {
		panic("ask/tell tuner must not evaluate")
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return NewAskTell(tn)
}

// runPendingScript drives a session through a fixed script with live
// leases at every ask: an initial phase asked in batches of 8 with two
// batches outstanding, then model-phase asks of 4 over several rounds
// in which one lease lapses and is re-issued, one is renewed past its
// first deadline, and (when refresh is set) the sampled pool is
// redrawn while leases are live. It returns the key of every pick in
// order and the session's duplicate-suggestion count.
func runPendingScript(t *testing.T, sp *space.Space, value func(space.Config) float64, opts Options, refresh bool) ([]string, int64) {
	t.Helper()
	at := newLeaseTestAskTell(t, sp, opts)
	now := time.Unix(1_000_000, 0)
	var keys []string
	ask := func(k int, ttl time.Duration) []space.Config {
		t.Helper()
		picks, err := at.Ask(k, ttl, now)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range picks {
			keys = append(keys, sp.Key(c))
		}
		return append([]space.Config(nil), picks...)
	}
	tell := func(cs ...space.Config) {
		t.Helper()
		for _, c := range cs {
			if _, err := at.Tell(c, value(c)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Initial phase (20 samples), asked in batches of 8 while the
	// previous batch is still leased.
	b1 := ask(8, time.Minute)
	b2 := ask(8, time.Minute)
	tell(b1...)
	b3 := ask(8, time.Minute)
	tell(b2...)
	tell(b3[:4]...) // 20 observations; b3[4:] stays leased

	// Model phase: Ask(4) with leases outstanding at every pick.
	r1 := ask(4, 5*time.Second)
	tell(b3[4:]...)
	r2 := ask(4, time.Minute)
	tell(r1[0], r1[1])
	if renewed, lost := at.Renew(r1[2:3], time.Minute, now); renewed != 1 || len(lost) != 0 {
		t.Fatalf("Renew = %d renewed, %d lost; want 1, 0", renewed, len(lost))
	}
	now = now.Add(6 * time.Second) // r1[3] lapses; r1[2] was renewed
	if refresh {
		if err := at.Tuner().RefreshPool(); err != nil {
			t.Fatal(err)
		}
	}
	r3 := ask(4, time.Minute)
	tell(r2...)
	tell(r1[2])
	r4 := ask(4, time.Minute)
	tell(r3...)
	ask(4, time.Minute)
	tell(r4[:2]...)
	ask(4, time.Minute)
	return keys, at.DuplicateSuggestions()
}

// TestAskTellPendingGoldenSequence pins the pending ask path: every
// pick of runPendingScript, for the pool engines (ranking on an
// enumerated and on a refreshed sampled pool, random) and a pool-free
// one (sampling). The literals were recorded before the lease filter
// moved from Space.Key lookups to pool indices.
func TestAskTellPendingGoldenSequence(t *testing.T) {
	cases := []struct {
		name    string
		sp      *space.Space
		value   func(space.Config) float64
		opts    Options
		refresh bool
		want    []string
		dups    int64
	}{
		{name: "ranking", sp: leaseTestSpace(), value: leaseTestValue,
			opts: Options{Seed: 2, InitialSamples: 20},
			want: []string{
				"0|2|2|0", "3|3|0|1", "0|4|2|1", "3|3|2|0", "3|1|3|3", "1|0|3|1",
				"3|0|3|2", "1|0|1|2", "3|0|0|2", "3|3|3|0", "3|3|2|2", "1|3|3|2",
				"3|1|3|1", "4|3|2|3", "4|4|2|1", "0|2|2|1", "3|1|1|0", "3|2|2|2",
				"1|4|2|1", "1|4|1|2", "0|0|2|0", "2|1|2|2", "0|4|1|3", "3|0|3|0",
				"3|1|3|2", "3|1|1|3", "3|1|0|2", "3|1|0|3", "2|1|3|0", "2|1|3|3",
				"2|2|3|0", "3|1|3|0", "3|1|1|2", "2|1|1|3", "3|1|2|3", "3|2|3|3",
				"2|1|1|0", "2|1|3|2", "4|1|3|0", "3|2|3|0", "3|1|1|1", "3|1|0|3",
				"3|1|2|0", "3|1|2|2", "2|1|1|2", "2|1|2|0", "3|0|1|0", "2|1|2|3",
			},
			dups: 1},
		{name: "random", sp: leaseTestSpace(), value: leaseTestValue,
			opts: Options{Seed: 12, InitialSamples: 20, Engine: "random"},
			want: []string{
				"1|2|2|3", "4|0|0|3", "4|2|1|0", "4|3|0|3", "1|2|0|1", "1|1|2|0",
				"3|3|0|3", "4|4|3|2", "2|3|3|0", "3|1|3|3", "4|3|0|2", "0|3|2|0",
				"3|2|3|2", "0|2|0|3", "2|4|2|3", "1|2|2|0", "3|3|2|0", "0|3|3|3",
				"0|2|3|3", "1|2|3|0", "2|3|3|2", "3|1|2|0", "2|1|2|0", "0|0|2|1",
				"4|4|0|2", "3|1|0|2", "3|1|0|0", "4|0|2|2", "3|3|0|0", "0|2|1|2",
				"4|0|0|2", "4|1|1|0", "2|0|2|1", "4|2|2|3", "0|0|0|0", "1|1|0|1",
				"3|4|0|2", "2|0|0|3", "0|2|2|0", "4|0|1|0", "4|1|3|3", "3|1|2|3",
				"2|1|1|3", "1|3|1|3", "0|0|3|1", "0|4|2|0", "3|2|2|1", "1|1|3|2",
			},
			dups: 0},
		{name: "sampling", sp: leaseTestSpace(), value: leaseTestValue,
			opts: Options{Seed: 13, InitialSamples: 20, Engine: "sampling"},
			want: []string{
				"1|3|3|0", "3|2|0|2", "2|2|2|1", "4|1|1|2", "3|4|0|0", "2|3|2|3",
				"2|1|3|2", "2|0|0|3", "1|2|3|3", "1|0|2|1", "4|3|0|0", "1|2|1|0",
				"0|4|1|1", "0|4|2|3", "4|2|0|1", "0|0|2|3", "2|1|2|1", "3|2|3|0",
				"0|2|0|3", "1|0|3|3", "0|2|0|1", "4|0|1|3", "1|3|2|2", "2|2|3|0",
				"2|1|2|2", "2|1|1|2", "3|1|3|2", "3|1|2|2", "2|1|3|0", "2|1|3|1",
				"2|2|3|1", "4|1|1|0", "3|1|2|2", "3|1|1|2", "4|1|2|2", "2|1|1|1",
				"3|1|3|0", "4|1|3|2", "2|1|1|0", "4|1|3|0", "3|1|2|0", "3|4|2|2",
				"3|1|1|0", "3|1|2|1", "4|1|2|0", "3|1|3|1", "2|1|2|0", "3|2|3|2",
			},
			dups: 1},
		{name: "ranking-sampled-pool", sp: smallSampledSpace(), value: smallSampledValue,
			opts: Options{Seed: 2, InitialSamples: 20, Engine: "ranking", PoolCap: 48}, refresh: true,
			want: []string{
				"7|4", "3|2", "6|7", "10|5", "7|6", "9|6",
				"4|1", "3|6", "7|5", "1|0", "8|6", "0|7",
				"10|0", "5|8", "6|5", "8|11", "7|10", "8|7",
				"6|4", "5|9", "0|0", "3|4", "5|10", "4|4",
				"11|3", "7|11", "6|6", "2|6", "7|9", "9|4",
				"7|2", "1|6", "2|6", "6|8", "7|1", "11|4",
				"9|2", "6|3", "8|2", "3|5", "7|3", "1|4",
				"6|9", "10|6", "6|0", "0|3", "5|6", "9|7",
			},
			dups: 1},
	}
	const print = false
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			keys, dups := runPendingScript(t, tc.sp, tc.value, tc.opts, tc.refresh)
			if print {
				t.Fatalf("golden literal (dups %d):\n%#v", dups, keys)
			}
			if !reflect.DeepEqual(keys, tc.want) {
				t.Fatalf("pending selection sequence drifted\ngot:  %#v\nwant: %#v", keys, tc.want)
			}
			if dups != tc.dups {
				t.Fatalf("DuplicateSuggestions = %d, want %d", dups, tc.dups)
			}
		})
	}
}

// TestAskTellLeaseFilterMatchesKeys drives ranking, random and
// sampling sessions (and ranking on a sampled pool that is redrawn
// mid-run) through random Ask, Tell, Renew and expiry steps. After
// every step the index filter must exclude exactly the pool
// candidates whose Space.Key is in the live lease set, and no Ask may
// hand out an evaluated or a leased configuration.
func TestAskTellLeaseFilterMatchesKeys(t *testing.T) {
	cases := []struct {
		name  string
		sp    *space.Space
		value func(space.Config) float64
		opts  Options
	}{
		{"ranking", leaseTestSpace(), leaseTestValue, Options{Seed: 21, InitialSamples: 10}},
		{"random", leaseTestSpace(), leaseTestValue, Options{Seed: 22, InitialSamples: 10, Engine: "random"}},
		{"sampling", leaseTestSpace(), leaseTestValue, Options{Seed: 23, InitialSamples: 10, Engine: "sampling"}},
		{"ranking-sampled-pool", smallSampledSpace(), smallSampledValue,
			Options{Seed: 24, InitialSamples: 10, Engine: "ranking", PoolCap: 48}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := tc.sp
			at := newLeaseTestAskTell(t, sp, tc.opts)
			rng := stats.NewRNG(tc.opts.Seed)
			now := time.Unix(1_000_000, 0)
			var out []space.Config // handed out, not yet told
			check := func(step int) {
				t.Helper()
				f := at.filter()
				if (f == nil) != (len(at.leases) == 0) {
					t.Fatalf("step %d: filter nil = %v with %d live leases", step, f == nil, len(at.leases))
				}
				p := at.Tuner().pool
				if p == nil {
					return
				}
				for i := 0; i < p.Size(); i++ {
					_, leased := at.leases[sp.Key(p.Candidate(i))]
					if f.HasIndex(i) != leased || f.Has(p.Candidate(i)) != leased {
						t.Fatalf("step %d: candidate %s: filter says %v, lease map %v",
							step, sp.Key(p.Candidate(i)), f.HasIndex(i), leased)
					}
				}
			}
			for step := 0; step < 150; step++ {
				switch op := rng.Intn(10); {
				case op < 4:
					at.Leases(now) // expire lapsed leases before the snapshot
					before := make(map[string]bool, len(at.leases))
					for key := range at.leases {
						before[key] = true
					}
					ttls := []time.Duration{0, 3 * time.Second, time.Minute}
					picks, err := at.Ask(1+rng.Intn(4), ttls[rng.Intn(len(ttls))], now)
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					for _, c := range picks {
						if before[sp.Key(c)] || at.Tuner().History().Contains(c) {
							t.Fatalf("step %d: Ask handed out %s, which is leased or evaluated", step, sp.Key(c))
						}
						out = append(out, c)
					}
				case op < 7 && len(out) > 0:
					j := rng.Intn(len(out))
					c := out[j]
					out = append(out[:j], out[j+1:]...)
					if _, err := at.Tell(c, tc.value(c)); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				case op < 8 && len(out) > 0:
					at.Renew(out[rng.Intn(len(out)):], time.Minute, now)
				case op < 9:
					now = now.Add(time.Duration(1+rng.Intn(4)) * time.Second)
				default:
					if at.Tuner().sampled != nil {
						if err := at.Tuner().RefreshPool(); err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
					}
				}
				check(step)
			}
		})
	}
}

// failingAcquirer passes the first ok proposals to its inner acquirer
// and fails every later one.
type failingAcquirer struct {
	inner Acquirer
	ok    int
}

func (f *failingAcquirer) Propose(a *Acquisition, k int) ([]space.Config, error) {
	if f.ok == 0 {
		return nil, errors.New("injected acquisition failure")
	}
	f.ok--
	return f.inner.Propose(a, k)
}

// TestAskTellRollbackForgetsSuggestions fails the second pick of a
// model-phase Ask(3): the call must leave no lease, no fantasy and no
// suggestion behind, so re-picking the rolled-back candidate is not a
// duplicate.
func TestAskTellRollbackForgetsSuggestions(t *testing.T) {
	at := newLeaseTestAskTell(t, leaseTestSpace(), Options{Seed: 5, InitialSamples: 4})
	now := time.Unix(1_000_000, 0)
	for at.InitialPhase() {
		picks, err := at.Ask(1, time.Minute, now)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := at.Tell(picks[0], leaseTestValue(picks[0])); err != nil {
			t.Fatal(err)
		}
	}
	tn := at.Tuner()
	inner := tn.acquirer
	tn.acquirer = &failingAcquirer{inner: inner, ok: 1}
	if _, err := at.Ask(3, time.Minute, now); err == nil {
		t.Fatal("Ask succeeded through a failing acquirer")
	}
	if n := at.Leases(now); n != 0 {
		t.Fatalf("Leases = %d after a rolled-back Ask, want 0", n)
	}
	if n := tn.History().PendingLen(); n != 0 {
		t.Fatalf("PendingLen = %d after a rolled-back Ask, want 0", n)
	}
	if d := at.DuplicateSuggestions(); d != 0 {
		t.Fatalf("DuplicateSuggestions = %d after a rolled-back Ask, want 0", d)
	}
	tn.acquirer = inner
	picks, err := at.Ask(1, time.Minute, now)
	if err != nil || len(picks) != 1 {
		t.Fatalf("Ask(1) after rollback = %v, %v", picks, err)
	}
	if d := at.DuplicateSuggestions(); d != 0 {
		t.Fatalf("DuplicateSuggestions = %d: a pick no caller saw counted as suggested", d)
	}
}

// TestAskTellExhaustionEndsBatchShort runs the pool-free sampling
// engine out of configurations: Ask returns the short batch it found
// and then an empty one, with no error, while Tuner.Step still
// reports the exhausted space.
func TestAskTellExhaustionEndsBatchShort(t *testing.T) {
	sp := space.New(space.DiscreteInts("x", 0, 1), space.DiscreteInts("y", 0, 1))
	value := func(c space.Config) float64 { return c[0] + 2*c[1] }
	opts := Options{Seed: 9, InitialSamples: 2, Engine: "sampling"}
	at := newLeaseTestAskTell(t, sp, opts)
	now := time.Unix(1_000_000, 0)
	initial, err := at.Ask(2, time.Minute, now)
	if err != nil || len(initial) != 2 {
		t.Fatalf("initial Ask(2) = %v, %v", initial, err)
	}
	for _, c := range initial {
		if _, err := at.Tell(c, value(c)); err != nil {
			t.Fatal(err)
		}
	}
	picks, err := at.Ask(3, time.Minute, now)
	if err != nil {
		t.Fatalf("Ask(3) on 2 remaining configurations: %v", err)
	}
	if len(picks) != 2 || picks[0].Equal(picks[1]) {
		t.Fatalf("Ask(3) = %v, want the 2 remaining configurations", picks)
	}
	if picks, err := at.Ask(1, time.Minute, now); err != nil || len(picks) != 0 {
		t.Fatalf("Ask(1) on a fully leased space = %v, %v; want an empty result", picks, err)
	}
	if d := at.DuplicateSuggestions(); d != 0 {
		t.Fatalf("DuplicateSuggestions = %d, want 0", d)
	}

	tn, err := NewTuner(sp, value, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Run(4); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Step(); !errors.Is(err, errExhausted) {
		t.Fatalf("Step on an exhausted space: err = %v, want the exhaustion error", err)
	}
}

// TestAskTellImportanceReadsExactFit checks that Importance with live
// leases builds no fantasized surrogate — it folds only the observed
// history — and returns the scores of a cold fit on the observations.
func TestAskTellImportanceReadsExactFit(t *testing.T) {
	for _, opts := range []Options{
		{Seed: 6, InitialSamples: 8},
		{Seed: 6, InitialSamples: 8, Engine: "grouped", Groups: [][]string{{"a", "b"}, {"c", "d"}}},
	} {
		at := newLeaseTestAskTell(t, leaseTestSpace(), opts)
		now := time.Unix(1_000_000, 0)
		for at.InitialPhase() {
			picks, err := at.Ask(1, time.Minute, now)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := at.Tell(picks[0], leaseTestValue(picks[0])); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := at.Ask(2, time.Minute, now); err != nil {
			t.Fatal(err)
		}
		tn := at.Tuner()
		h := tn.History()
		var m *TPEModel
		switch model := tn.Model().(type) {
		case *TPEModel:
			m = model
		case *GroupedModel:
			m = model.flat
		}
		fant, fantPend := m.fant, m.fantPend
		if fant == nil || fantPend == h.PendingHash() {
			t.Fatalf("%s: Ask(2) should leave a fantasy built before its last pick", tn.EngineName())
		}
		got, err := tn.Importance()
		if err != nil {
			t.Fatal(err)
		}
		if m.fant != fant || m.fantPend != fantPend {
			t.Fatalf("%s: Importance built a fantasized surrogate", tn.EngineName())
		}
		cold, err := BuildSurrogate(h, tn.opts.Surrogate)
		if err != nil {
			t.Fatal(err)
		}
		if want := cold.Importance(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Importance = %v, cold fit on the observations = %v", tn.EngineName(), got, want)
		}
	}
}
