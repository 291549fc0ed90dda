package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/hpcautotune/hiperbot/internal/space"
	"github.com/hpcautotune/hiperbot/internal/stats"
)

// keyPool is the string-keyed pool NewPool used to be: identity by
// Space.Key, swap-removal tracked in a key → position map. It is the
// reference FuzzPoolIndex checks the index-based pool against.
type keyPool struct {
	sp        *space.Space
	cands     []space.Config
	index     map[string]int
	pos       map[string]int
	remaining []int
}

func newKeyPool(sp *space.Space, cands []space.Config) (*keyPool, bool) {
	p := &keyPool{sp: sp, cands: cands, index: map[string]int{}, pos: map[string]int{}}
	for i, c := range cands {
		key := sp.Key(c)
		if _, dup := p.index[key]; dup {
			return nil, false
		}
		p.index[key] = i
		p.pos[key] = i
		p.remaining = append(p.remaining, i)
	}
	return p, true
}

func (p *keyPool) indexOf(c space.Config) int {
	if len(c) != p.sp.NumParams() {
		return -1 // Space.Key needs the space's arity
	}
	if i, ok := p.index[p.sp.Key(c)]; ok {
		return i
	}
	return -1
}

func (p *keyPool) markEvaluated(c space.Config) {
	if len(c) != p.sp.NumParams() {
		return
	}
	key := p.sp.Key(c)
	i, ok := p.pos[key]
	if !ok {
		return
	}
	last := len(p.remaining) - 1
	moved := p.remaining[last]
	p.remaining[i] = moved
	p.remaining = p.remaining[:last]
	delete(p.pos, key)
	if i <= last-1 {
		p.pos[p.sp.Key(p.cands[moved])] = i
	}
}

// fuzzValues are the values fuzzed candidates are drawn from: both
// zeros, NaNs with different payloads, infinities, far-apart
// magnitudes, neighbouring floats, and fractional and negative
// levels, which Space.Key truncates on discrete parameters.
var fuzzValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 2, 3, 1.5, 2.9999999999999996, -0.5,
	math.NaN(), math.Float64frombits(0x7ff8000000000002), math.Inf(1), math.Inf(-1),
	1e-300, 5e-324, 1e300, -1e300, 0.1, 0.30000000000000004, 0.3, 1 << 53, 1<<53 + 2,
}

// poolProbes returns the configurations a pool check looks up: every
// candidate, each candidate with one value swapped for a fuzzValues
// entry (fractional, negative, NaN, ±Inf, far out of range), and each
// candidate one value short and one value long.
func poolProbes(cands []space.Config, salt int) []space.Config {
	probes := append([]space.Config{}, cands...)
	for i, c := range cands {
		swapped := c.Clone()
		swapped[i%len(c)] = fuzzValues[(i*7+salt)%len(fuzzValues)]
		probes = append(probes, swapped, c[:len(c)-1], append(c.Clone(), 0))
	}
	return probes
}

// checkPool checks p against the key-based reference: its size, every
// candidate's values and batch columns, IndexOf on the probes, and
// Remaining after each MarkEvaluated of a probe.
func checkPool(t *testing.T, p *Pool, ref *keyPool, probes []space.Config) {
	t.Helper()
	if p.Size() != len(ref.cands) {
		t.Fatalf("Size = %d, key pool %d", p.Size(), len(ref.cands))
	}
	b, err := p.Batch()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range ref.cands {
		got := p.Candidate(i)
		if len(got) != len(want) {
			t.Fatalf("Candidate(%d) = %v, want %v", i, got, want)
		}
		for d := range want {
			if math.Float64bits(got[d]) != math.Float64bits(want[d]) || math.Float64bits(b.Col(d)[i]) != math.Float64bits(want[d]) {
				t.Fatalf("Candidate(%d) = %v, batch column %d holds %v; want %v", i, got, d, b.Col(d)[i], want)
			}
		}
	}
	for _, c := range probes {
		if got, want := p.IndexOf(c), ref.indexOf(c); got != want {
			t.Fatalf("IndexOf(%v) = %d, key lookup %d", c, got, want)
		}
	}
	for _, c := range probes {
		p.MarkEvaluated(c)
		ref.markEvaluated(c)
		if !reflect.DeepEqual(p.Remaining(), ref.remaining) {
			t.Fatalf("after MarkEvaluated(%v): Remaining = %v, key pool %v", c, p.Remaining(), ref.remaining)
		}
	}
}

// FuzzPoolIndex checks the pool against keyPool. The row arm takes
// arbitrary candidate sets over a space of 1–4 discrete or continuous
// parameters; the grid arm (bit 7 of the second byte) takes a grid of
// 1–4 discrete parameters of 1–4 levels, optionally constrained, and
// checks both its enumerated pool and an explicit set drawn from it,
// with some values made fractional. NewPool must reject exactly the
// sets with a repeated key, and checkPool must hold for every pool.
func FuzzPoolIndex(f *testing.F) {
	f.Add([]byte{0, 1, 9, 10})   // NaNs with different payloads: one key
	f.Add([]byte{0, 1, 0, 1, 2}) // continuous +0 and -0: two keys
	f.Add([]byte{0, 0, 4, 7, 1}) // discrete 2 and 2.9999999999999996: one key
	f.Add([]byte{2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{3, 7, 0, 0, 1, 1, 9, 10, 11, 12, 13, 2, 2})
	f.Add([]byte{1, 0, 2, 6, 7, 8, 4, 5})
	f.Add([]byte{4, 5, 15, 16, 17, 18, 19, 20, 21, 3, 3, 3, 3, 0, 0})
	f.Add([]byte{3, 0x80, 0, 3, 3, 3, 3, 0, 1, 2, 3, 0x85, 200})        // full 4⁴ grid, one fractional row
	f.Add([]byte{2, 0x80, 0x5a, 1, 2, 3, 4, 5, 6, 7, 8, 9})             // constrained 2×3×4 grid
	f.Add([]byte{1, 0x80, 0xff, 2, 3, 0, 1, 2, 3, 4, 5})                // constraint that admits everything
	f.Add([]byte{0, 0x80, 0x01, 3, 7, 7})                               // duplicate explicit rows
	f.Add([]byte{3, 0x80, 0x10, 0, 0, 0, 0, 0})                         // constraint that admits nothing
	f.Add([]byte{2, 0x80, 0x33, 3, 3, 3, 0x81, 1, 0x82, 2, 3, 4, 5, 6}) // a row and its fractional twin
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		dims := 1 + int(data[0])%4
		if data[1]&0x80 != 0 {
			fuzzGridPool(t, dims, data[2:])
			return
		}
		params := make([]space.Param, dims)
		for d := range params {
			name := string(rune('a' + d))
			if data[1]>>d&1 == 1 {
				params[d] = space.Continuous(name, -1, 1)
			} else {
				params[d] = space.DiscreteInts(name, 0, 1, 2, 3)
			}
		}
		sp := space.New(params...)
		rows := data[2:]
		var cands []space.Config
		for len(rows) >= dims && len(cands) < 64 {
			c := make(space.Config, dims)
			for d := range c {
				c[d] = fuzzValues[int(rows[d])%len(fuzzValues)]
			}
			cands = append(cands, c)
			rows = rows[dims:]
		}
		if len(cands) == 0 {
			return
		}

		ref, unique := newKeyPool(sp, cands)
		p, err := NewPool(sp, cands)
		if (err == nil) != unique {
			t.Fatalf("NewPool err = %v, but the keys are unique = %v", err, unique)
		}
		if !unique {
			return
		}
		checkPool(t, p, ref, poolProbes(cands, int(data[0])))
	})
}

// fuzzGridPool is FuzzPoolIndex's grid arm. data holds a constraint
// mask (0: unconstrained), one level count per parameter, and then one
// byte per explicit row: a grid index, with bit 7 making the row's
// first value fractional.
func fuzzGridPool(t *testing.T, dims int, data []byte) {
	if len(data) < 1+dims {
		return
	}
	mask := data[0]
	params := make([]space.Param, dims)
	for d := range params {
		levels := make([]int, 1+int(data[1+d])%4)
		for l := range levels {
			levels[l] = l
		}
		params[d] = space.DiscreteInts(string(rune('a'+d)), levels...)
	}
	sp := space.New(params...)
	if mask != 0 {
		sp = sp.WithConstraint(func(c space.Config) bool {
			h := 0
			for _, v := range c {
				h = h*7 + int(v)
			}
			return mask>>(h%8)&1 == 1
		})
	}

	all := sp.Enumerate()
	p, err := newGridPool(sp)
	if (err == nil) != (len(all) > 0) {
		t.Fatalf("newGridPool err = %v over %d valid configurations", err, len(all))
	}
	if err == nil {
		if p.rows != nil || p.index.slots != nil {
			t.Fatalf("enumerated pool keeps %d rows and a %d-slot identity table", len(p.rows), len(p.index.slots))
		}
		ref, _ := newKeyPool(sp, all)
		checkPool(t, p, ref, poolProbes(all, int(mask)))
		for i, c := range all {
			if got := p.Candidate(i); !reflect.DeepEqual(got, c) {
				t.Fatalf("Candidate(%d) = %v, Enumerate %v", i, got, c)
			}
		}
	}

	grid := sp.GridSize()
	var cands []space.Config
	for _, b := range data[1+dims:] {
		c := sp.FromGridIndex(int(b&0x7f) % grid)
		if b&0x80 != 0 {
			c[0] += 0.5
		}
		cands = append(cands, c)
	}
	if len(cands) == 0 {
		return
	}
	ref, unique := newKeyPool(sp, cands)
	p, err = NewPool(sp, cands)
	if (err == nil) != unique {
		t.Fatalf("NewPool err = %v, but the keys are unique = %v", err, unique)
	}
	if !unique {
		return
	}
	if dense := grid <= 4*len(cands); dense != (p.dense != nil) || dense == (p.index.slots != nil) {
		t.Fatalf("%d rows over a %d-point grid: dense table %v, identity table %v", len(cands), grid, p.dense != nil, p.index.slots != nil)
	}
	for i, c := range cands {
		if got := p.Candidate(i); &got[0] != &c[0] {
			t.Fatalf("Candidate(%d) is not the row as given", i)
		}
	}
	checkPool(t, p, ref, poolProbes(cands, int(mask)))
}

// gridPoolSpaces are leaseTestSpace and a constrained variant that
// keeps the 200 configurations with an even level sum.
func gridPoolSpaces() map[string]*space.Space {
	sp := leaseTestSpace()
	return map[string]*space.Space{
		"full": sp,
		"constrained": sp.WithConstraint(func(c space.Config) bool {
			return int(c[0]+c[1]+c[2]+c[3])%2 == 0
		}),
	}
}

// TestGridPoolMatchesRowPool checks that an enumerated pool, which
// keeps no rows, selects exactly what the same tuner selects from the
// explicit set Candidates: sp.Enumerate(), which keeps its rows in a
// dense grid table: ranking asked one at a time, ranking and random
// through the lease script with Ask(4). geist and gp are checked by
// the root package's TestGridPoolMatchesRowPoolGeistGP.
func TestGridPoolMatchesRowPool(t *testing.T) {
	serial := func(t *testing.T, sp *space.Space, opts Options) ([]string, int64) {
		at := newLeaseTestAskTell(t, sp, opts)
		now := time.Unix(1_000_000, 0)
		var keys []string
		for len(keys) < 40 {
			picks, err := at.Ask(1, time.Minute, now)
			if err != nil || len(picks) != 1 {
				t.Fatalf("Ask(1) = %v, %v", picks, err)
			}
			keys = append(keys, sp.Key(picks[0]))
			if _, err := at.Tell(picks[0], leaseTestValue(picks[0])); err != nil {
				t.Fatal(err)
			}
		}
		return keys, at.DuplicateSuggestions()
	}
	script := func(t *testing.T, sp *space.Space, opts Options) ([]string, int64) {
		return runPendingScript(t, sp, leaseTestValue, opts)
	}
	runs := []struct {
		name string
		run  func(*testing.T, *space.Space, Options) ([]string, int64)
		opts Options
	}{
		{"ranking-ask1", serial, Options{Seed: 4, InitialSamples: 20}},
		{"ranking-ask4", script, Options{Seed: 2, InitialSamples: 20}},
		{"random-ask4", script, Options{Seed: 12, InitialSamples: 20, Engine: "random"}},
	}
	for spName, sp := range gridPoolSpaces() {
		for _, r := range runs {
			t.Run(spName+"/"+r.name, func(t *testing.T) {
				tn, err := NewTuner(sp, leaseTestValue, r.opts)
				if err != nil {
					t.Fatal(err)
				}
				if p := tn.pool; p.rows != nil || p.index.slots != nil || (p.cells != nil) != sp.Constrained() {
					t.Fatalf("enumerated pool keeps %d rows, a %d-slot identity table and %d grid cells", len(p.rows), len(p.index.slots), len(p.cells))
				}
				gridKeys, gridDups := r.run(t, sp, r.opts)
				opts := r.opts
				opts.Candidates = sp.Enumerate()
				rowKeys, rowDups := r.run(t, sp, opts)
				if !reflect.DeepEqual(gridKeys, rowKeys) || gridDups != rowDups {
					t.Fatalf("enumerated pool selected (%d dups)\n%v\nexplicit set (%d dups)\n%v", gridDups, gridKeys, rowDups, rowKeys)
				}
			})
		}
	}
}

// drawRemainingCopy is the initial-phase draw drawRemaining replaced:
// copy the remaining set net of leases, then swap-remove k picks.
func drawRemainingCopy(p *Pool, k int, rng *stats.RNG) []space.Config {
	var avail []int
	for _, idx := range p.Remaining() {
		if !p.Leased(idx) {
			avail = append(avail, idx)
		}
	}
	if k > len(avail) {
		k = len(avail)
	}
	out := make([]space.Config, 0, k)
	for len(out) < k {
		pick := rng.Intn(len(avail))
		out = append(out, p.Candidate(avail[pick]))
		avail[pick] = avail[len(avail)-1]
		avail = avail[:len(avail)-1]
	}
	return out
}

// TestDrawRemainingMatchesCopy checks the virtual-list draw against
// the copy it replaced, on enumerated, constrained and hashed pools:
// after random MarkEvaluated prefixes, under lease sets that include
// evaluated candidates, for k from 1 to past the available count, both
// return the same picks and leave the RNG at the same next value.
func TestDrawRemainingMatchesCopy(t *testing.T) {
	sp := space.New(
		space.DiscreteInts("a", 0, 1, 2, 3),
		space.DiscreteInts("b", 0, 1, 2, 3),
		space.DiscreteInts("c", 0, 1, 2),
	)
	even := sp.WithConstraint(func(c space.Config) bool { return int(c[0]+c[1]+c[2])%2 == 0 })
	// An off-grid level keeps an explicit set on the identity table.
	hashed := append(sp.Enumerate()[5:], space.Config{0, 0, 7})
	pools := map[string]func() *Pool{
		"grid":        func() *Pool { p, _ := newGridPool(sp); return p },
		"constrained": func() *Pool { p, _ := newGridPool(even); return p },
		"hashed": func() *Pool {
			p, err := NewPool(sp, hashed)
			if err != nil || p.index.slots == nil {
				t.Fatalf("NewPool = %v; identity table %v", err, p.index.slots != nil)
			}
			return p
		},
	}
	rng := stats.NewRNG(99)
	for name, build := range pools {
		for trial := 0; trial < 40; trial++ {
			p := build()
			n := p.Size()
			for _, i := range rng.Perm(n)[:rng.Intn(n)] {
				p.MarkEvaluated(p.Candidate(i))
			}
			if trial%4 != 0 {
				for _, i := range rng.Perm(n)[:rng.Intn(n/2+1)] {
					p.markLeased(p.Candidate(i), true)
				}
			}
			avail := 0
			for _, i := range p.Remaining() {
				if !p.Leased(i) {
					avail++
				}
			}
			for k := 1; k <= avail+2; k++ {
				seed := rng.Uint64()
				got, want := stats.NewRNG(seed), stats.NewRNG(seed)
				a, b := drawRemaining(p, k, got), drawRemainingCopy(p, k, want)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s trial %d k=%d: drew %v, the copy drew %v", name, trial, k, a, b)
				}
				if x, y := got.Uint64(), want.Uint64(); x != y {
					t.Fatalf("%s trial %d k=%d: RNG next %d, the copy's %d", name, trial, k, x, y)
				}
			}
		}
	}
}
