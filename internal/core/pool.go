package core

import (
	"fmt"
	"math"

	"github.com/hpcautotune/hiperbot/internal/space"
)

// Pool is a finite candidate set with O(1) evaluated-candidate
// removal and a lazily built columnar view for batch scoring. It is
// the state the Ranking strategy used to keep inline in the Tuner,
// extracted so every pool-backed engine (TPE ranking, random
// subset, GEIST's graph propagation) shares one implementation.
//
// Candidate identity is the identity of Space.Key — two
// configurations are the same candidate exactly when their keys are
// equal — but the pool formats no keys: it hashes each row's
// per-parameter identity words (see identityWord) into an
// open-addressed table of candidate indices and resolves collisions
// by comparing the words.
type Pool struct {
	sp         *space.Space
	candidates []space.Config
	remaining  []int        // candidate indices not yet evaluated
	pos        []int32      // candidate index → position in remaining, -1 once evaluated
	slots      []int32      // open-addressed identity table: candidate index + 1, 0 = empty
	continuous []bool       // per parameter: identity by float bits rather than by level
	batch      *space.Batch // columnar candidates, built on first use
}

// NewPool indexes the candidate set. Empty sets, candidates whose
// arity differs from the space's, and duplicate candidates are
// rejected.
func NewPool(sp *space.Space, candidates []space.Config) (*Pool, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("core: empty candidate set")
	}
	size := 2
	for size < 2*len(candidates) {
		size <<= 1
	}
	p := &Pool{
		sp:         sp,
		candidates: candidates,
		remaining:  make([]int, len(candidates)),
		pos:        make([]int32, len(candidates)),
		slots:      make([]int32, size),
		continuous: make([]bool, sp.NumParams()),
	}
	for d := range p.continuous {
		p.continuous[d] = sp.Param(d).Kind == space.ContinuousKind
	}
	for i, c := range candidates {
		if len(c) != len(p.continuous) {
			return nil, fmt.Errorf("core: candidate %d has %d values, space has %d parameters", i, len(c), len(p.continuous))
		}
		slot, found := p.find(c)
		if found {
			return nil, fmt.Errorf("core: duplicate candidate %v (candidates %d and %d)", c, p.slots[slot]-1, i)
		}
		p.slots[slot] = int32(i) + 1
		p.remaining[i] = i
		p.pos[i] = int32(i)
	}
	return p, nil
}

// canonicalNaN stands for every NaN: Space.Key formats them all alike.
const canonicalNaN = 0x7ff8000000000001

// identityWord maps value v of parameter d to a word that is equal
// for two values exactly when Space.Key formats them alike: a
// discrete level is formatted as int(v), and a continuous value with
// 17 significant digits, which round-trip, so distinct floats
// (including +0 and -0) get distinct keys and every NaN the same one.
func (p *Pool) identityWord(d int, v float64) uint64 {
	if !p.continuous[d] {
		return uint64(int64(int(v)))
	}
	if v != v {
		return canonicalNaN
	}
	return math.Float64bits(v)
}

// find returns the slot holding c's candidate index (found) or the
// empty slot where c would be inserted. c must have the space's arity.
func (p *Pool) find(c space.Config) (slot int, found bool) {
	h := uint64(0x9e3779b97f4a7c15)
	for d, v := range c {
		h = mix64(h ^ p.identityWord(d, v))
	}
	mask := len(p.slots) - 1
	for slot = int(h) & mask; ; slot = (slot + 1) & mask {
		e := p.slots[slot]
		if e == 0 {
			return slot, false
		}
		if p.sameCandidate(p.candidates[e-1], c) {
			return slot, true
		}
	}
}

// sameCandidate compares two rows of the space's arity by identity
// word.
func (p *Pool) sameCandidate(a, b space.Config) bool {
	for d := range a {
		if p.identityWord(d, a[d]) != p.identityWord(d, b[d]) {
			return false
		}
	}
	return true
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Size returns the total number of candidates (evaluated or not).
func (p *Pool) Size() int { return len(p.candidates) }

// RemainingCount returns how many candidates are not yet evaluated.
func (p *Pool) RemainingCount() int { return len(p.remaining) }

// Remaining returns the indices of not-yet-evaluated candidates. The
// order is maintained by swap-removal, so it is deterministic for a
// fixed evaluation sequence but not sorted. Callers must not mutate
// the slice.
func (p *Pool) Remaining() []int { return p.remaining }

// Candidate returns candidate i.
func (p *Pool) Candidate(i int) space.Config { return p.candidates[i] }

// Candidates returns the full candidate slice (callers must not
// mutate it).
func (p *Pool) Candidates() []space.Config { return p.candidates }

// IndexOf returns c's candidate index, or -1 when c is not in the
// pool.
func (p *Pool) IndexOf(c space.Config) int {
	if len(c) != len(p.continuous) {
		return -1
	}
	slot, found := p.find(c)
	if !found {
		return -1
	}
	return int(p.slots[slot] - 1)
}

// MarkEvaluated removes c from the remaining set in O(1); unknown or
// already-removed configurations are ignored.
func (p *Pool) MarkEvaluated(c space.Config) {
	i := p.IndexOf(c)
	if i < 0 || p.pos[i] < 0 {
		return
	}
	at := p.pos[i]
	last := len(p.remaining) - 1
	moved := p.remaining[last]
	p.remaining[at] = moved
	p.pos[moved] = at
	p.remaining = p.remaining[:last]
	p.pos[i] = -1
}

// Batch returns the columnar view of the full candidate set, building
// it on first use. Row i of the batch is candidate i, so scores
// computed over it are indexed by candidate index.
func (p *Pool) Batch() (*space.Batch, error) {
	if p.batch == nil {
		b, err := space.NewBatch(p.sp, p.candidates)
		if err != nil {
			return nil, err
		}
		p.batch = b
	}
	return p.batch, nil
}
