package core

import (
	"math"
	"reflect"
	"testing"

	"github.com/hpcautotune/hiperbot/internal/space"
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
	if i, ok := p.index[p.sp.Key(c)]; ok {
		return i
	}
	return -1
}

func (p *keyPool) markEvaluated(c space.Config) {
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

// FuzzPoolIndex checks the index-based pool against keyPool on
// arbitrary candidate sets over a space of 1–4 discrete or continuous
// parameters: NewPool rejects exactly the sets with a repeated key,
// IndexOf agrees with the key lookup for candidates and probes, and
// every MarkEvaluated sequence leaves Remaining in the same order.
func FuzzPoolIndex(f *testing.F) {
	f.Add([]byte{0, 1, 9, 10})   // NaNs with different payloads: one key
	f.Add([]byte{0, 1, 0, 1, 2}) // continuous +0 and -0: two keys
	f.Add([]byte{0, 0, 4, 7, 1}) // discrete 2 and 2.9999999999999996: one key
	f.Add([]byte{2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{3, 7, 0, 0, 1, 1, 9, 10, 11, 12, 13, 2, 2})
	f.Add([]byte{1, 0, 2, 6, 7, 8, 4, 5})
	f.Add([]byte{4, 5, 15, 16, 17, 18, 19, 20, 21, 3, 3, 3, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		dims := 1 + int(data[0])%4
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
		probes := append([]space.Config{}, cands...)
		for i := range cands {
			c := cands[i].Clone()
			c[i%dims] = fuzzValues[(i*7+int(data[0]))%len(fuzzValues)]
			probes = append(probes, c)
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
	})
}
