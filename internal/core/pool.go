package core

import (
	"fmt"

	"github.com/hpcautotune/hiperbot/internal/space"
)

// Pool is a finite candidate set with O(1) evaluated-candidate
// removal and a lazily built columnar view for batch scoring. It is
// the state the Ranking strategy used to keep inline in the Tuner,
// extracted so every pool-backed engine (TPE ranking, random
// subset, GEIST's graph propagation) shares one implementation.
//
// Candidate identity is configuration identity (identity.go): two
// configurations are the same candidate exactly when their Space.Keys
// are equal, but the pool formats no keys.
type Pool struct {
	sp        *space.Space
	set       configSet    // the candidates, indexed by identity
	remaining []int        // candidate indices not yet evaluated
	pos       []int32      // candidate index → position in remaining, -1 once evaluated
	batch     *space.Batch // columnar candidates, built on first use
}

// NewPool indexes the candidate set. Empty sets, candidates whose
// arity differs from the space's, and duplicate candidates are
// rejected.
func NewPool(sp *space.Space, candidates []space.Config) (*Pool, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("core: empty candidate set")
	}
	p := &Pool{
		sp:        sp,
		set:       newConfigSet(newIdentity(sp), len(candidates)),
		remaining: make([]int, len(candidates)),
		pos:       make([]int32, len(candidates)),
	}
	p.set.rows = candidates
	id := p.set.id
	for i, c := range candidates {
		if len(c) != id.arity() {
			return nil, fmt.Errorf("core: candidate %d has %d values, space has %d parameters", i, len(c), id.arity())
		}
		if j := p.set.insert(c, id.hash(c), i, p.set.row); j >= 0 {
			return nil, fmt.Errorf("core: duplicate candidate %v (candidates %d and %d)", c, j, i)
		}
		p.remaining[i] = i
		p.pos[i] = int32(i)
	}
	return p, nil
}

// Size returns the total number of candidates (evaluated or not).
func (p *Pool) Size() int { return len(p.set.rows) }

// RemainingCount returns how many candidates are not yet evaluated.
func (p *Pool) RemainingCount() int { return len(p.remaining) }

// Remaining returns the indices of not-yet-evaluated candidates. The
// order is maintained by swap-removal, so it is deterministic for a
// fixed evaluation sequence but not sorted. Callers must not mutate
// the slice.
func (p *Pool) Remaining() []int { return p.remaining }

// Candidate returns candidate i.
func (p *Pool) Candidate(i int) space.Config { return p.set.rows[i] }

// Candidates returns the full candidate slice (callers must not
// mutate it).
func (p *Pool) Candidates() []space.Config { return p.set.rows }

// IndexOf returns c's candidate index, or -1 when c is not in the
// pool.
func (p *Pool) IndexOf(c space.Config) int {
	if len(c) != p.set.id.arity() {
		return -1
	}
	return p.set.lookup(c, p.set.id.hash(c), p.set.row)
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
		b, err := space.NewBatch(p.sp, p.set.rows)
		if err != nil {
			return nil, err
		}
		p.batch = b
	}
	return p.batch, nil
}
