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

// leaseTestMixedSpace is leaseTestSpace with b and d made continuous,
// so fantasized fits gather KDE points from the pending overlay.
func leaseTestMixedSpace() *space.Space {
	return space.New(
		space.DiscreteInts("a", 0, 1, 2, 3, 4),
		space.Continuous("b", 0, 4),
		space.DiscreteInts("c", 0, 1, 2, 3),
		space.Continuous("d", 0, 3),
	)
}

// smallSampledSpace is a 1 049 600-point grid, just past
// DefaultEnumerateLimit, whose constraint keeps 144 configurations:
// pool-backed engines get a sampled pool.
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
// in which one lease lapses and is re-issued and one is renewed past
// its first deadline. It returns the key of every pick in order and
// the session's duplicate-suggestion count.
func runPendingScript(t *testing.T, sp *space.Space, value func(space.Config) float64, opts Options) ([]string, int64) {
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
// enumerated and on a sampled pool, ranking under the min liar,
// random) and the pool-free ones (sampling, grouped, proposal on a
// discrete and on a mixed continuous space). The ranking, random and
// sampling literals were recorded before the lease filter moved from
// Space.Key lookups to pool indices; the sampled-pool literal before
// acquisition dropped its score caches; the rest before fantasized
// fits stopped rebuilding the surrogate from the whole history. The max liar is not listed: on this script it reproduces
// the mean liar's sequence exactly.
func TestAskTellPendingGoldenSequence(t *testing.T) {
	cases := []struct {
		name  string
		sp    *space.Space
		value func(space.Config) float64
		opts  Options
		want  []string
		dups  int64
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
			opts: Options{Seed: 2, InitialSamples: 20, Engine: "ranking", PoolCap: 48},
			want: []string{
				"7|4", "3|2", "6|7", "10|5", "7|6", "9|6",
				"4|1", "3|6", "7|5", "1|0", "8|6", "0|7",
				"10|0", "5|8", "6|5", "8|11", "7|10", "8|7",
				"6|4", "5|9", "0|0", "3|4", "5|10", "4|4",
				"11|3", "7|11", "6|6", "2|6", "7|9", "9|4",
				"7|2", "1|6", "2|6", "11|6", "5|5", "9|11",
				"9|2", "0|4", "2|1", "1|2", "9|10", "5|7",
				"1|3", "4|0", "0|1", "10|7", "4|11", "3|0",
			},
			dups: 1},
		{name: "ranking-liar-min", sp: leaseTestSpace(), value: leaseTestValue,
			opts: Options{Seed: 2, InitialSamples: 20, Liar: "min"},
			want: []string{
				"0|2|2|0", "3|3|0|1", "0|4|2|1", "3|3|2|0", "3|1|3|3", "1|0|3|1",
				"3|0|3|2", "1|0|1|2", "3|0|0|2", "3|3|3|0", "3|3|2|2", "1|3|3|2",
				"3|1|3|1", "4|3|2|3", "4|4|2|1", "0|2|2|1", "3|1|1|0", "3|2|2|2",
				"1|4|2|1", "1|4|1|2", "0|0|2|0", "2|1|2|2", "0|4|1|3", "3|0|3|0",
				"2|1|1|0", "2|1|1|3", "2|0|1|0", "2|0|1|3", "2|1|1|1", "2|2|1|3",
				"2|2|1|0", "2|2|1|1", "2|0|1|1", "2|0|1|3", "2|2|0|3", "2|2|0|0",
				"2|1|0|3", "3|1|0|3", "4|1|0|3", "4|2|0|3", "4|1|3|3", "4|1|0|0",
				"4|1|0|1", "4|1|0|2", "4|1|3|0", "4|1|3|1", "4|1|3|2", "4|2|0|0",
			},
			dups: 1},
		{name: "grouped", sp: leaseTestSpace(), value: leaseTestValue,
			opts: Options{Seed: 14, InitialSamples: 20, Engine: "grouped", Groups: [][]string{{"a", "b"}, {"c", "d"}}},
			want: []string{
				"3|3|3|3", "1|3|0|3", "2|3|3|3", "3|4|0|3", "2|1|2|2", "0|0|1|2",
				"4|2|2|0", "0|0|2|0", "3|3|2|3", "4|4|1|1", "1|4|0|1", "2|0|0|3",
				"1|1|2|1", "0|3|3|0", "4|2|0|3", "0|0|2|2", "2|4|1|0", "2|3|2|1",
				"3|2|0|1", "0|2|3|0", "3|3|1|1", "2|4|3|2", "2|4|2|1", "3|3|1|2",
				"4|1|2|3", "4|2|2|3", "4|1|0|3", "1|2|0|1", "3|2|2|1", "3|1|2|1",
				"3|2|0|3", "4|1|2|1", "4|2|2|1", "1|2|2|3", "3|1|2|3", "4|2|0|1",
				"4|1|2|0", "4|1|2|2", "3|1|2|0", "4|2|2|2", "2|1|2|1", "3|1|2|2",
				"2|2|2|1", "4|0|2|1", "4|1|1|0", "4|1|3|0", "1|1|2|2", "0|1|2|1",
			},
			dups: 0},
		{name: "proposal", sp: leaseTestSpace(), value: leaseTestValue,
			opts: Options{Seed: 15, InitialSamples: 20, Engine: "proposal"},
			want: []string{
				"3|2|1|0", "2|1|3|3", "2|4|2|1", "2|1|3|1", "2|0|0|1", "2|0|0|3",
				"0|4|0|0", "2|1|1|0", "1|4|3|1", "4|2|3|3", "2|1|1|3", "0|4|2|0",
				"1|0|0|2", "1|0|3|3", "4|3|0|3", "1|4|1|1", "1|1|1|3", "3|3|0|3",
				"2|2|0|3", "3|2|0|3", "2|0|3|0", "3|3|3|0", "1|2|3|3", "4|4|3|3",
				"3|1|1|2", "2|1|1|1", "4|1|1|0", "2|1|3|0", "2|1|1|2", "2|1|2|0",
				"2|0|1|0", "2|2|3|0", "3|1|1|1", "0|1|1|2", "3|1|1|0", "2|1|3|2",
				"3|1|2|1", "4|1|1|2", "2|1|2|2", "4|1|1|1", "3|2|1|1", "3|1|2|0",
				"0|1|1|0", "3|3|1|1", "3|1|2|2", "2|1|2|1", "4|1|2|0", "3|3|1|0",
			},
			dups: 0},
		{name: "proposal-continuous", sp: leaseTestMixedSpace(), value: leaseTestValue,
			opts: Options{Seed: 16, InitialSamples: 20, Engine: "proposal"},
			want: []string{
				"4|0.067958094035886152|3|0.15521128365375392", "4|2.803551826428456|3|1.2235868676781199",
				"0|1.5067088126545847|2|0.43641608911909691", "3|3.159916872083798|3|1.9220534059311167",
				"3|1.3627887687376279|3|0.17351426052103092", "4|0.88806563861496812|3|2.4244501798546487",
				"0|2.0172228469683842|1|1.400874534092555", "4|1.5420777769381266|1|1.5592147613417353",
				"3|2.0567526141403674|1|2.1610597158371649", "2|1.3215603869852965|3|2.1662114853760666",
				"0|0.12263730043349419|2|1.1974519865722331", "0|2.71771298807914|1|1.723922806982376",
				"4|3.339001493220676|0|1.544954477554811", "2|3.6258191706660692|3|2.182996214077896",
				"1|0.79704382966158205|2|2.5780603363525993", "2|1.2062527480556788|0|1.6833613683925648",
				"4|3.3838691223177082|2|0.47280584823109095", "4|1.9367092225875036|1|2.6351808573062656",
				"4|2.0855778089734582|1|0.39620291541918007", "3|0.35593592762780402|2|2.6862625369128694",
				"0|1.868388268623475|0|2.4397278772942621", "4|0.21609633567882192|0|2.2145149138004454",
				"3|1.377006174338903|2|2.8003702952247878", "4|0.10697973362654745|2|2.0567359442955881",
				"3|1.7226336050030504|3|3", "3|1.2568792326731049|3|2.389895266384003",
				"3|1.3524209735376087|1|3", "2|1.4045859600690651|3|2.0624623669936781",
				"3|1.3702419984643563|3|3", "3|1.1499607565128227|3|3",
				"3|1.029774065288787|2|3", "3|1.2336895344801158|2|2.7643741395931491",
				"3|1.396527127441789|3|3", "3|1.3061463865053913|3|3",
				"2|1.2632113617382785|3|3", "3|1.2278569197411111|3|2.5315073760385012",
				"3|1.2500287029540418|2|3", "3|1.212460360994398|2|3",
				"3|1.2302831541960126|2|3", "3|1.1935070429871306|2|2.8396263387818257",
				"3|1.2186383967783454|2|3", "3|1.2095968184292805|2|3",
				"3|1.2314004859106427|3|3", "3|1.2979618049472328|3|3",
				"3|1.2300397046418599|2|3", "3|1.2070985139583736|2|2.7341085254493196",
				"3|1.2206185796540427|2|3", "3|1.2256368021968178|2|2.8764743620699207",
			},
			dups: 0},
	}
	const print = false
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			keys, dups := runPendingScript(t, tc.sp, tc.value, tc.opts)
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

// leaseSessions are the sessions the lease bookkeeping is checked on:
// ranking, random and sampling on a 400-point grid, ranking on a
// sampled pool, and sampling held in its initial phase for the whole
// grid, so every Ask is a uniform draw outside a pool.
var leaseSessions = []struct {
	name  string
	sp    func() *space.Space
	value func(space.Config) float64
	opts  Options
}{
	{"ranking", leaseTestSpace, leaseTestValue, Options{Seed: 21, InitialSamples: 10}},
	{"random", leaseTestSpace, leaseTestValue, Options{Seed: 22, InitialSamples: 10, Engine: "random"}},
	{"sampling", leaseTestSpace, leaseTestValue, Options{Seed: 23, InitialSamples: 10, Engine: "sampling"}},
	{"ranking-sampled-pool", smallSampledSpace, smallSampledValue,
		Options{Seed: 24, InitialSamples: 10, Engine: "ranking", PoolCap: 48}},
	{"sampling-uniform", leaseTestSpace, leaseTestValue, Options{Seed: 25, InitialSamples: 400, Engine: "sampling"}},
}

// leaseScript returns a random lease script of n steps for
// runLeaseScript, drawn from seed.
func leaseScript(seed uint64, n int) []byte {
	rng := stats.NewRNG(seed)
	script := make([]byte, 2*n)
	for i := range script {
		script[i] = byte(rng.Intn(256))
	}
	return script
}

// leaseRef models AskTell's leases by Space.Key, apart from its
// bookkeeping: live maps the key of every live lease to its deadline
// (zero: never), handed holds every key Ask has handed out, and dups
// counts the picks whose key was in handed already.
type leaseRef struct {
	live   map[string]time.Time
	handed map[string]bool
	dups   int64
}

// expire drops the leases whose deadline is before now, as every
// AskTell call but Tell does first.
func (r *leaseRef) expire(now time.Time) {
	for k, d := range r.live {
		if !d.IsZero() && now.After(d) {
			delete(r.live, k)
		}
	}
}

// runLeaseScript drives session e of leaseSessions through script, two
// bytes a step, an operation and its argument:
//
//   - 0-3: Ask(1+arg%4) with a TTL of 0, 3 s or 1 min (arg/4%3);
//   - 4-6: Tell the outstanding pick arg%len;
//   - 7: Renew the outstanding picks from arg%len on, for a minute;
//   - 8: advance the clock 1+arg%4 seconds, and for arg >= 128 count
//     the live leases with Leases, which expires the lapsed ones;
//   - 9: an Ask as 0-3 through an acquirer that fails after arg/12%4
//     proposals, which rolls back the model-phase picks.
//
// The operation is the byte mod 10; a Tell or a Renew with nothing
// outstanding advances the clock instead. After every step the pending
// overlay's rows, AskTell's lease versions, the pool's leased bits and
// the live keys of a leaseRef must agree, no pick may be leased or
// evaluated, and DuplicateSuggestions must equal the reference count.
// A short pool-free Ask on an unconstrained grid must mean that the
// observed and leased configurations cover the grid; runLeaseScript
// returns how many such Asks it checked.
func runLeaseScript(t *testing.T, e int, script []byte) (short int) {
	t.Helper()
	s := leaseSessions[e]
	sp := s.sp()
	at := newLeaseTestAskTell(t, sp, s.opts)
	tn := at.Tuner()
	ref := &leaseRef{live: map[string]time.Time{}, handed: map[string]bool{}}
	now := time.Unix(1_000_000, 0)
	ttls := []time.Duration{0, 3 * time.Second, time.Minute}
	var out []space.Config // handed out, not yet told
	var poolKeys []string  // Space.Key of each pool candidate
	if p := tn.pool; p != nil {
		for i := 0; i < p.Size(); i++ {
			poolKeys = append(poolKeys, sp.Key(p.Candidate(i)))
		}
	}
	ask := func(step, k int, ttl time.Duration, fail int) {
		t.Helper()
		if fail >= 0 {
			inner := tn.acquirer
			tn.acquirer = &failingAcquirer{inner: inner, ok: fail}
			defer func() { tn.acquirer = inner }()
		}
		ref.expire(now)
		picks, err := at.Ask(k, ttl, now)
		if err != nil {
			if fail < 0 {
				t.Fatalf("step %d: %v", step, err)
			}
			return
		}
		for _, c := range picks {
			key := sp.Key(c)
			if _, leased := ref.live[key]; leased || tn.History().Contains(c) {
				t.Fatalf("step %d: Ask handed out %s, which is leased or evaluated", step, key)
			}
			if ref.handed[key] {
				ref.dups++
			}
			ref.handed[key] = true
			ref.live[key] = time.Time{}
			if ttl > 0 {
				ref.live[key] = now.Add(ttl)
			}
			out = append(out, c)
		}
		if len(picks) < k && tn.pool == nil && sp.AllDiscrete() && !sp.Constrained() {
			if covered := tn.History().Len() + len(ref.live); covered != sp.GridSize() {
				t.Fatalf("step %d: Ask(%d) returned %d picks with %d of %d configurations observed or leased",
					step, k, len(picks), covered, sp.GridSize())
			}
			short++
		}
	}
	check := func(step int) {
		t.Helper()
		h := tn.History()
		rows := h.pend.rows
		if len(rows) != len(at.vers) || len(rows) != len(ref.live) {
			t.Fatalf("step %d: %d pending rows, %d lease versions, %d live leases", step, len(rows), len(at.vers), len(ref.live))
		}
		for _, c := range rows {
			if _, ok := ref.live[sp.Key(c)]; !ok {
				t.Fatalf("step %d: %s is pending but not leased", step, sp.Key(c))
			}
		}
		if p := tn.pool; p != nil {
			for i, key := range poolKeys {
				if _, leased := ref.live[key]; p.Leased(i) != leased {
					t.Fatalf("step %d: candidate %s: pool says leased %v, the leases %v", step, key, p.Leased(i), leased)
				}
			}
			if p.nleased != len(ref.live) {
				t.Fatalf("step %d: %d pool bits set, %d live leases", step, p.nleased, len(ref.live))
			}
		}
		for _, c := range at.lapsed.rows {
			if _, leased := ref.live[sp.Key(c)]; leased || !ref.handed[sp.Key(c)] || h.Contains(c) {
				t.Fatalf("step %d: lapsed %s is leased, evaluated or never handed out", step, sp.Key(c))
			}
		}
		if got := at.DuplicateSuggestions(); got != ref.dups {
			t.Fatalf("step %d: DuplicateSuggestions = %d, the key count %d", step, got, ref.dups)
		}
	}
	for step := 0; step+1 < len(script); step += 2 {
		op, arg := int(script[step]%10), int(script[step+1])
		if (op >= 4 && op < 8) && len(out) == 0 {
			op = 8
		}
		switch {
		case op < 4:
			ask(step/2, 1+arg%4, ttls[arg/4%3], -1)
		case op < 7:
			j := arg % len(out)
			c := out[j]
			out = append(out[:j], out[j+1:]...)
			if _, err := at.Tell(c, s.value(c)); err != nil {
				t.Fatalf("step %d: %v", step/2, err)
			}
			delete(ref.live, sp.Key(c))
		case op < 8:
			ref.expire(now)
			renew := out[arg%len(out):]
			renewed, lost := at.Renew(renew, time.Minute, now)
			wantLost := 0
			for _, c := range renew {
				if _, ok := ref.live[sp.Key(c)]; ok {
					ref.live[sp.Key(c)] = now.Add(time.Minute)
				} else {
					wantLost++
				}
			}
			if renewed != len(renew)-wantLost || len(lost) != wantLost {
				t.Fatalf("step %d: Renew = %d renewed, %d lost; the leases say %d lost of %d", step/2, renewed, len(lost), wantLost, len(renew))
			}
		case op < 9:
			now = now.Add(time.Duration(1+arg%4) * time.Second)
			if arg >= 128 {
				ref.expire(now)
				if n := at.Leases(now); n != len(ref.live) {
					t.Fatalf("step %d: Leases = %d, the leases %d", step/2, n, len(ref.live))
				}
			}
		default:
			ask(step/2, 1+arg%4, ttls[arg/4%3], arg/12%4)
		}
		check(step / 2)
	}
	return short
}

// TestAskTellLeaseFilterMatchesKeys runs a random 150-step lease
// script (runLeaseScript) on each of leaseSessions: what acquisition
// filters out — the pool's leased bits and the pending overlay — must
// match the Space.Keys of the live leases after every step.
func TestAskTellLeaseFilterMatchesKeys(t *testing.T) {
	for e, s := range leaseSessions {
		t.Run(s.name, func(t *testing.T) {
			runLeaseScript(t, e, leaseScript(s.opts.Seed, 150))
		})
	}
}

// TestAskTellLeaseScriptPastExhaustion runs a 1 200-step lease script
// on each of leaseSessions, long enough that the sampling sessions'
// 400-point grid runs out, so runLeaseScript's exhaustion oracle sees
// short Asks.
func TestAskTellLeaseScriptPastExhaustion(t *testing.T) {
	for e, s := range leaseSessions {
		t.Run(s.name, func(t *testing.T) {
			short := runLeaseScript(t, e, leaseScript(s.opts.Seed, 1200))
			if s.opts.Engine == "sampling" && short == 0 {
				t.Fatal("no short Ask: the script never exhausted the grid")
			}
		})
	}
}

// FuzzAskTellLeases runs runLeaseScript on arbitrary scripts: the first
// byte picks the session, the rest is the script, uncut, so a script
// may run past the grid's exhaustion. The seeds are the first 64 steps
// of TestAskTellLeaseFilterMatchesKeys and the scripts of
// TestAskTellLeaseScriptPastExhaustion.
func FuzzAskTellLeases(f *testing.F) {
	for _, steps := range []int{64, 1200} {
		for e, s := range leaseSessions {
			f.Add(append([]byte{byte(e)}, leaseScript(s.opts.Seed, steps)...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		runLeaseScript(t, int(data[0])%len(leaseSessions), data[1:])
	})
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

// TestAskTellRollbackKeepsLapsed re-picks a configuration whose lease
// expired inside an Ask that then fails: the configuration must stay
// lapsed, so the failing Ask counts no duplicate and the next Ask that
// hands it out counts one.
func TestAskTellRollbackKeepsLapsed(t *testing.T) {
	sp := space.New(space.DiscreteInts("x", 0, 1, 2))
	value := func(c space.Config) float64 { return c[0] }
	at := newLeaseTestAskTell(t, sp, Options{Seed: 3, InitialSamples: 2})
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
	if _, err := at.Ask(1, time.Second, now); err != nil { // the last configuration
		t.Fatal(err)
	}
	now = now.Add(2 * time.Second)
	tn := at.Tuner()
	inner := tn.acquirer
	tn.acquirer = &failingAcquirer{inner: inner, ok: 1}
	if _, err := at.Ask(2, time.Minute, now); err == nil {
		t.Fatal("Ask succeeded through a failing acquirer")
	}
	if d := at.DuplicateSuggestions(); d != 0 {
		t.Fatalf("DuplicateSuggestions = %d after a rolled-back re-pick, want 0", d)
	}
	tn.acquirer = inner
	if picks, err := at.Ask(1, time.Minute, now); err != nil || len(picks) != 1 {
		t.Fatalf("Ask(1) after rollback = %v, %v", picks, err)
	}
	if d := at.DuplicateSuggestions(); d != 1 {
		t.Fatalf("DuplicateSuggestions = %d after re-issuing the lapsed configuration, want 1", d)
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
