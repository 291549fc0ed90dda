package core

import (
	"math"
	"math/bits"

	"github.com/hpcautotune/hiperbot/internal/space"
)

// Configuration identity. Two rows of a space's arity are the same
// configuration exactly when their Space.Keys are equal: Key formats a
// discrete value as int(v), so 1.5 and 1 are one level, and a
// continuous value with 17 significant digits, which round-trip, so
// distinct floats (+0 and -0 included) differ and every NaN is one
// value. identity decides that relation without formatting anything,
// and configIndex indexes rows by it. Every structure in this package
// that asks "is this the same configuration?" uses them: the pool, the
// observed history, the pending overlay (which is also the set of live
// leases), the lapsed leases and every acquirer's per-pick dedupe. A
// pool over a small discrete grid asks by grid index instead, which
// agrees with the identity (pool.go). A row of the wrong arity is
// never a member of any of them.

// identity maps the values of one space's configurations to identity
// words: one word per parameter, equal for two values exactly when
// Space.Key formats them alike.
type identity struct {
	continuous []bool // per parameter: identity by float bits rather than by level
}

func newIdentity(sp *space.Space) identity {
	id := identity{continuous: make([]bool, sp.NumParams())}
	for d := range id.continuous {
		id.continuous[d] = sp.Param(d).Kind == space.ContinuousKind
	}
	return id
}

// arity is the number of values a member row has.
func (id identity) arity() int { return len(id.continuous) }

// canonicalNaN stands for every NaN: Space.Key formats them all alike.
const canonicalNaN = 0x7ff8000000000001

// word is value v of parameter d as an identity word.
func (id identity) word(d int, v float64) uint64 {
	if !id.continuous[d] {
		return uint64(int64(int(v)))
	}
	if v != v {
		return canonicalNaN
	}
	return math.Float64bits(v)
}

// hash folds c's identity words with one multiply each and finishes
// with one mix64. c must have the identity's arity. Equal rows hash
// alike, so one hash serves every index a draw is tested against.
//
// Each step is a folded multiply: the XOR of the high and low halves
// of the 128-bit product. A plain 64-bit (h^w)·K would carry a change
// only upwards, so two rows differing in the top bit of two words (+0
// and -0 in two continuous parameters) would hash alike.
func (id identity) hash(c space.Config) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for d, v := range c {
		hi, lo := bits.Mul64(h^id.word(d, v), 0xa0761d6478bd642f)
		h = hi ^ lo
	}
	return mix64(h)
}

// same compares two rows of the identity's arity word by word.
func (id identity) same(a, b space.Config) bool {
	for d, v := range a {
		if id.word(d, v) != id.word(d, b[d]) {
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

// configIndex indexes rows its owner keeps (pool candidates,
// observations, leases, ...) by identity: an open-addressed table of
// row indices with linear probing, collisions resolved by comparing
// words. It holds no copy of the rows; the methods that probe take
// row, which returns row i of the owner's store. The zero value with
// id set is empty and allocates its table on the first insert. Every
// row passed in must have the identity's arity, and h is always the
// row's identity.hash.
type configIndex struct {
	id    identity
	slots []int32 // row index + 1; 0 = empty
	n     int     // indexed rows; the table stays at least twice as large
}

// newConfigIndex returns an empty index sized for n rows.
func newConfigIndex(id identity, n int) configIndex {
	return configIndex{id: id, slots: make([]int32, tableSize(n))}
}

// tableSize is the smallest power of two, at least 2, that holds n
// rows at a load factor of at most one half.
func tableSize(n int) int {
	size := 2
	for size < 2*n {
		size <<= 1
	}
	return size
}

// find returns the slot holding the row identical to c (found), or
// the empty slot where c would go. The table must not be empty.
func (x *configIndex) find(c space.Config, h uint64, row func(int) space.Config) (slot int, found bool) {
	mask := len(x.slots) - 1
	for slot = int(h) & mask; ; slot = (slot + 1) & mask {
		e := x.slots[slot]
		if e == 0 {
			return slot, false
		}
		if x.id.same(row(int(e-1)), c) {
			return slot, true
		}
	}
}

// lookup returns the index of the row identical to c, or -1.
func (x *configIndex) lookup(c space.Config, h uint64, row func(int) space.Config) int {
	if x.n == 0 {
		return -1
	}
	slot, found := x.find(c, h, row)
	if !found {
		return -1
	}
	return int(x.slots[slot]) - 1
}

// scan returns the first row of hash h's probe run for which match
// reports true, or -1: a lookup for owners that recognize a row by
// something other than its configuration.
func (x *configIndex) scan(h uint64, match func(i int) bool) int {
	if x.n == 0 {
		return -1
	}
	mask := len(x.slots) - 1
	for slot := int(h) & mask; x.slots[slot] != 0; slot = (slot + 1) & mask {
		if i := int(x.slots[slot]) - 1; match(i) {
			return i
		}
	}
	return -1
}

// insert indexes c as row i and returns -1, or, when an identical row
// is already indexed, returns that row's index and changes nothing.
func (x *configIndex) insert(c space.Config, h uint64, i int, row func(int) space.Config) int {
	x.reserve(1, row)
	slot, found := x.find(c, h, row)
	if found {
		return int(x.slots[slot]) - 1
	}
	x.slots[slot] = int32(i) + 1
	x.n++
	return -1
}

// reserve sizes the table for n more rows.
func (x *configIndex) reserve(n int, row func(int) space.Config) {
	if 2*(x.n+n) <= len(x.slots) {
		return
	}
	size := tableSize(x.n + n)
	old := x.slots
	x.slots = make([]int32, size)
	mask := size - 1
	for _, e := range old {
		if e == 0 {
			continue
		}
		slot := int(x.id.hash(row(int(e-1)))) & mask
		for x.slots[slot] != 0 {
			slot = (slot + 1) & mask
		}
		x.slots[slot] = e
	}
}

// remove unindexes c and returns the row it held, or -1 when c is not
// indexed. It serves owners that swap-remove: the entry of row last,
// the owner's last row, is renumbered to the freed row, so the owner
// must then move row last there and drop its last row.
func (x *configIndex) remove(c space.Config, h uint64, last int, row func(int) space.Config) int {
	if x.n == 0 {
		return -1
	}
	hole, found := x.find(c, h, row)
	if !found {
		return -1
	}
	i := int(x.slots[hole]) - 1
	// Backward-shift deletion: pull every later entry of the probe run
	// whose home slot is not cyclically in (hole, j] into the hole, so
	// no tombstones are needed.
	mask := len(x.slots) - 1
	x.slots[hole] = 0
	for j := (hole + 1) & mask; x.slots[j] != 0; j = (j + 1) & mask {
		e := x.slots[j]
		home := int(x.id.hash(row(int(e-1)))) & mask
		if (hole < j && (home <= hole || home > j)) || (j < hole && home <= hole && home > j) {
			x.slots[hole], x.slots[j] = e, 0
			hole = j
		}
	}
	x.n--
	if i != last {
		moved := row(last)
		slot, _ := x.find(moved, x.id.hash(moved), row)
		x.slots[slot] = int32(i) + 1
	}
	return i
}

// configSet is a configIndex over rows it keeps itself, in insertion
// order: the pending overlay, the lapsed leases, a sampled pool's
// draw, and the distinct draws of one acquisition.
type configSet struct {
	configIndex
	rows []space.Config
}

// newConfigSet returns an empty set sized for n rows.
func newConfigSet(id identity, n int) configSet {
	return configSet{configIndex: newConfigIndex(id, n)}
}

func (s *configSet) row(i int) space.Config { return s.rows[i] }

// has reports whether a row identical to c is in the set.
func (s *configSet) has(c space.Config, h uint64) bool {
	return s.lookup(c, h, s.row) >= 0
}

// add appends c unless an identical row is in the set, and reports
// whether it did. The set keeps c itself, not a copy.
func (s *configSet) add(c space.Config, h uint64) bool {
	if s.insert(c, h, len(s.rows), s.row) >= 0 {
		return false
	}
	s.rows = append(s.rows, c)
	return true
}

// remove drops the row identical to c by moving the last row into its
// place, and returns that place, or -1 when there was no such row.
func (s *configSet) remove(c space.Config, h uint64) int {
	last := len(s.rows) - 1
	i := s.configIndex.remove(c, h, last, s.row)
	if i < 0 {
		return -1
	}
	s.rows[i] = s.rows[last]
	s.rows[last] = nil
	s.rows = s.rows[:last]
	return i
}
