package core

import (
	"fmt"
	"slices"

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
// are equal, but the pool formats no keys. A pool over a fully
// discrete grid within DefaultEnumerateLimit finds a candidate by its
// grid index, the mixed-radix index over int(v), which is the
// identity's discrete word:
//
//   - an enumerated grid (newGridPool) keeps no rows: candidate i is the
//     i-th valid grid index in ascending order, which is Enumerate's
//     order, and Candidate decodes a fresh row. On a full grid the
//     candidate index is the grid index; a constrained grid keeps the
//     valid grid indices and binary-searches them.
//   - an explicit set (NewPool) at most four times sparser than its grid
//     keeps its rows and a dense grid → candidate table.
//
// Other explicit sets (continuous parameters, an off-grid level,
// sparser sets, sampled pools) are indexed by identity hash.
type Pool struct {
	sp        *space.Space
	rows      []space.Config // the candidates; nil while an enumerated pool decodes them
	cards     []int          // per-parameter cardinalities of a grid-addressed pool; nil when hashed
	cells     []uint32       // constrained enumerated grid: candidate i's grid index, ascending
	dense     []int32        // explicit grid-addressed set: grid index → candidate index + 1, 0 for none
	index     configIndex    // hashed pools: rows by identity
	remaining []int          // candidate indices not yet evaluated
	pos       []int32        // candidate index → position in remaining, -1 once evaluated
	leased    []uint64       // bitset of candidates leased out by AskTell; nil until the first lease
	nleased   int            // set bits of leased
	batch     *space.Batch   // columnar candidates, built on first use
}

// newPool returns a pool of n candidates, none evaluated.
func newPool(sp *space.Space, n int) *Pool {
	p := &Pool{sp: sp, remaining: make([]int, n), pos: make([]int32, n)}
	for i := range p.remaining {
		p.remaining[i] = i
		p.pos[i] = int32(i)
	}
	return p
}

// NewPool indexes the candidate set. Empty sets, candidates whose
// arity differs from the space's, and duplicate candidates are
// rejected. Candidate returns the rows as given.
func NewPool(sp *space.Space, candidates []space.Config) (*Pool, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("core: empty candidate set")
	}
	p := newPool(sp, len(candidates))
	p.rows = candidates
	if cards, grid := gridCards(sp); cards != nil && grid <= 4*len(candidates) {
		dense, err := denseIndex(sp, cards, grid, candidates)
		if err != nil {
			return nil, err
		}
		if dense != nil {
			p.cards, p.dense = cards, dense
			return p, nil
		}
	}
	id := newIdentity(sp)
	p.index = newConfigIndex(id, len(candidates))
	for i, c := range candidates {
		if len(c) != id.arity() {
			return nil, fmt.Errorf("core: candidate %d has %d values, space has %d parameters", i, len(c), id.arity())
		}
		if j := p.index.insert(c, id.hash(c), i, p.row); j >= 0 {
			return nil, duplicateCandidate(sp, c, j, i)
		}
	}
	return p, nil
}

// denseIndex indexes candidates by grid index: entry g is the index
// + 1 of the candidate at grid index g, 0 for none. It returns nil
// when a candidate has the wrong arity or an off-grid level.
func denseIndex(sp *space.Space, cards []int, grid int, candidates []space.Config) ([]int32, error) {
	dense := make([]int32, grid)
	for i, c := range candidates {
		g := gridIndex(cards, c)
		if g < 0 {
			return nil, nil
		}
		if j := dense[g]; j != 0 {
			return nil, duplicateCandidate(sp, c, int(j)-1, i)
		}
		dense[g] = int32(i) + 1
	}
	return dense, nil
}

// duplicateCandidate names c by its labels when they are valid, so a
// table with a repeated row reports the row as its CSV spells it.
func duplicateCandidate(sp *space.Space, c space.Config, j, i int) error {
	if sp.Check(c) != nil {
		return fmt.Errorf("core: duplicate candidate %v (candidates %d and %d)", c, j, i) // Describe needs valid levels
	}
	return fmt.Errorf("core: duplicate candidate %s (candidates %d and %d)", sp.Describe(c), j, i)
}

// newGridPool returns the pool of every valid configuration of a
// fully discrete space within DefaultEnumerateLimit, in Enumerate's
// order, without materializing a row.
func newGridPool(sp *space.Space) (*Pool, error) {
	cards, n := gridCards(sp)
	var cells []uint32
	if sp.Constrained() {
		sp.EachRange(0, uint64(n), func(g uint64, _ space.Config) bool {
			cells = append(cells, uint32(g))
			return true
		})
		n = len(cells)
	}
	if n == 0 {
		return nil, fmt.Errorf("core: empty candidate set")
	}
	p := newPool(sp, n)
	p.cards, p.cells = cards, cells
	return p, nil
}

// gridCards returns the per-parameter cardinalities and the grid size
// of a fully discrete space whose grid is within DefaultEnumerateLimit,
// or nil.
func gridCards(sp *space.Space) ([]int, int) {
	if !sp.AllDiscrete() || gridTooLarge(sp) {
		return nil, 0
	}
	cards := make([]int, sp.NumParams())
	for d := range cards {
		cards[d] = sp.Param(d).Cardinality()
	}
	return cards, sp.GridSize()
}

// gridIndex is c's mixed-radix index over int(v), or -1 when c's arity
// is not len(cards) or some int(v) lies outside [0, cardinality).
func gridIndex(cards []int, c space.Config) int {
	if len(c) != len(cards) {
		return -1
	}
	g := 0
	for d, v := range c {
		l := int(v)
		if l < 0 || l >= cards[d] {
			return -1
		}
		g = g*cards[d] + l
	}
	return g
}

func (p *Pool) row(i int) space.Config { return p.rows[i] }

// Size returns the total number of candidates (evaluated or not).
func (p *Pool) Size() int { return len(p.pos) }

// RemainingCount returns how many candidates are not yet evaluated.
func (p *Pool) RemainingCount() int { return len(p.remaining) }

// Remaining returns the indices of not-yet-evaluated candidates. The
// order is maintained by swap-removal, so it is deterministic for a
// fixed evaluation sequence but not sorted. Callers must not mutate
// the slice.
func (p *Pool) Remaining() []int { return p.remaining }

// Candidate returns candidate i: the row as given or materialized, or
// a freshly decoded row when the pool keeps none. Callers must not
// mutate it.
func (p *Pool) Candidate(i int) space.Config {
	switch {
	case p.rows != nil:
		return p.rows[i]
	case p.cells != nil:
		return p.sp.FromGridIndex(int(p.cells[i]))
	default:
		return p.sp.FromGridIndex(i)
	}
}

// IndexOf returns c's candidate index, or -1 when c is not in the
// pool.
func (p *Pool) IndexOf(c space.Config) int {
	if p.cards == nil {
		if len(c) != p.index.id.arity() {
			return -1
		}
		return p.index.lookup(c, p.index.id.hash(c), p.row)
	}
	g := gridIndex(p.cards, c)
	switch {
	case g < 0:
		return -1
	case p.dense != nil:
		return int(p.dense[g]) - 1
	case p.cells != nil:
		if i, ok := slices.BinarySearch(p.cells, uint32(g)); ok {
			return i
		}
		return -1
	default:
		return g
	}
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

// Leased reports whether candidate i is leased out: handed to a worker
// by AskTell and neither told nor expired since. Acquirers skip leased
// candidates as they skip evaluated ones. While nothing is leased it
// reads no bit, so the lease-free scan costs what it did without
// leases.
func (p *Pool) Leased(i int) bool {
	return p.nleased > 0 && p.leased[i>>6]&(1<<(uint(i)&63)) != 0
}

// markLeased sets (on) or clears the leased bit of c's candidate; a c
// outside the pool is ignored.
func (p *Pool) markLeased(c space.Config, on bool) {
	i := p.IndexOf(c)
	if i < 0 || p.Leased(i) == on {
		return
	}
	if p.leased == nil {
		p.leased = make([]uint64, (p.Size()+63)/64)
	}
	p.leased[i>>6] ^= 1 << (uint(i) & 63)
	if on {
		p.nleased++
	} else {
		p.nleased--
	}
}

// Batch returns the columnar view of the full candidate set, building
// it on first use. Row i of the batch is candidate i, so scores
// computed over it are indexed by candidate index.
func (p *Pool) Batch() (*space.Batch, error) {
	if p.batch == nil {
		if p.rows == nil {
			p.batch = space.NewGridBatch(p.sp, p.Size())
			return p.batch, nil
		}
		b, err := space.NewBatch(p.sp, p.rows)
		if err != nil {
			return nil, err
		}
		p.batch = b
	}
	return p.batch, nil
}
