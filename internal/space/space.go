package space

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/hpcautotune/hiperbot/internal/stats"
)

// Config assigns a value to every parameter of a Space, positionally.
// For discrete parameters the entry is the level index (an integral
// float); for continuous parameters it is the real value.
type Config []float64

// Clone returns a deep copy of the configuration.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	copy(out, c)
	return out
}

// Equal reports whether two configurations are identical.
func (c Config) Equal(d Config) bool {
	if len(c) != len(d) {
		return false
	}
	for i := range c {
		if c[i] != d[i] {
			return false
		}
	}
	return true
}

// Space is an ordered set of parameters plus an optional validity
// constraint. Real HPC spaces are rarely full cross products — e.g.
// Kripke requires ranks×threads to equal the core count — which is why
// the published dataset sizes (1609, 4589, ...) are not products of
// level cardinalities. The constraint reproduces that.
type Space struct {
	params     []Param
	constraint func(Config) bool // nil means everything is valid
	byName     map[string]int

	// Grid geometry, computed once in New so the index/decode hot
	// paths (FromGridIndex, EachRange) never recompute the O(d)
	// cardinality product per configuration.
	discrete bool   // every parameter is discrete
	cards    []int  // per-parameter cardinalities (discrete spaces)
	grid64   uint64 // unconstrained grid size, valid when gridOK
	gridOK   bool   // grid64 did not overflow maxGridSize
}

// maxGridSize bounds the indexable grid: 2^62 leaves headroom for
// signed-int index arithmetic on every supported platform.
const maxGridSize = uint64(1) << 62

// New builds a Space from the given parameters. Parameter names must
// be unique and non-empty.
func New(params ...Param) *Space {
	if len(params) == 0 {
		panic("space: New with no parameters")
	}
	s := &Space{params: append([]Param(nil), params...), byName: make(map[string]int, len(params))}
	for i, p := range params {
		if p.Name == "" {
			panic(fmt.Sprintf("space: parameter %d has empty name", i))
		}
		if _, dup := s.byName[p.Name]; dup {
			panic(fmt.Sprintf("space: duplicate parameter name %q", p.Name))
		}
		s.byName[p.Name] = i
	}
	s.initGrid()
	return s
}

// initGrid caches the discrete-grid geometry: per-parameter
// cardinalities and the (overflow-checked) unconstrained grid size.
func (s *Space) initGrid() {
	s.discrete = true
	for _, p := range s.params {
		if p.Kind != DiscreteKind {
			s.discrete = false
			return
		}
	}
	s.cards = make([]int, len(s.params))
	s.grid64, s.gridOK = 1, true
	for i, p := range s.params {
		k := p.Cardinality()
		s.cards[i] = k
		if s.gridOK && s.grid64 <= maxGridSize/uint64(k) {
			s.grid64 *= uint64(k)
		} else {
			s.gridOK = false
		}
	}
}

// WithConstraint returns a copy of the space restricted by valid. The
// predicate must be pure and deterministic.
func (s *Space) WithConstraint(valid func(Config) bool) *Space {
	out := &Space{
		params: s.params, constraint: valid, byName: s.byName,
		discrete: s.discrete, cards: s.cards, grid64: s.grid64, gridOK: s.gridOK,
	}
	return out
}

// NumParams returns the number of parameters.
func (s *Space) NumParams() int { return len(s.params) }

// Param returns the i-th parameter.
func (s *Space) Param(i int) Param { return s.params[i] }

// Params returns the parameter list (shared; callers must not mutate).
func (s *Space) Params() []Param { return s.params }

// IndexOf returns the position of the named parameter, or -1.
func (s *Space) IndexOf(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// AllDiscrete reports whether every parameter is discrete, i.e. the
// space is finite and the Ranking selection strategy applies.
func (s *Space) AllDiscrete() bool { return s.discrete }

// Constrained reports whether the space has a validity constraint, so
// that some grid points may be invalid.
func (s *Space) Constrained() bool { return s.constraint != nil }

// GridSize64 returns the size of the unconstrained cross product of
// all discrete levels, with ok=false when the product exceeds 2^62
// (the indexable range). It panics when the space has continuous
// parameters; overflow is a value, not a panic, so callers can route
// oversized spaces to the sampled large-space path.
func (s *Space) GridSize64() (size uint64, ok bool) {
	if !s.discrete {
		panic("space: GridSize64 on a space with continuous parameters")
	}
	return s.grid64, s.gridOK
}

// GridSize returns the size of the unconstrained cross product of all
// discrete levels. It panics when the space has continuous parameters
// or when the product overflows the indexable range; size-tolerant
// callers should use GridSize64 instead.
func (s *Space) GridSize() int {
	size, ok := s.GridSize64()
	if !ok {
		panic("space: grid size exceeds 2^62 (use GridSize64)")
	}
	return int(size)
}

// Valid reports whether c satisfies domain bounds and the constraint.
func (s *Space) Valid(c Config) bool {
	if err := s.Check(c); err != nil {
		return false
	}
	if s.constraint != nil && !s.constraint(c) {
		return false
	}
	return true
}

// Check verifies structural validity (arity, level ranges, bounds)
// without applying the constraint predicate.
func (s *Space) Check(c Config) error {
	if len(c) != len(s.params) {
		return fmt.Errorf("space: config has %d entries, space has %d parameters", len(c), len(s.params))
	}
	for i := range s.params {
		p := &s.params[i] // by pointer: Param is 88 bytes, and Check runs on every draw
		v := c[i]
		switch p.Kind {
		case DiscreteKind:
			idx := int(v)
			if float64(idx) != v || idx < 0 || idx >= len(p.Levels) {
				return fmt.Errorf("space: parameter %q: level %v outside [0,%d)", p.Name, v, len(p.Levels))
			}
		case ContinuousKind:
			if math.IsNaN(v) || v < p.Lo || v > p.Hi {
				return fmt.Errorf("space: parameter %q: value %v outside [%v,%v]", p.Name, v, p.Lo, p.Hi)
			}
		}
	}
	return nil
}

// GridIndex maps a fully discrete configuration to its mixed-radix
// index in the unconstrained grid (the inverse of FromGridIndex).
func (s *Space) GridIndex(c Config) int {
	if err := s.Check(c); err != nil {
		panic(err)
	}
	idx := 0
	for i, p := range s.params {
		if p.Kind != DiscreteKind {
			panic("space: GridIndex with continuous parameter")
		}
		idx = idx*p.Cardinality() + int(c[i])
	}
	return idx
}

// FromGridIndex decodes a mixed-radix grid index into a configuration.
func (s *Space) FromGridIndex(idx int) Config {
	if idx < 0 {
		panic(fmt.Sprintf("space: grid index %d outside [0,%d)", idx, s.grid64))
	}
	return s.FromGridIndex64(uint64(idx))
}

// FromGridIndex64 decodes a mixed-radix grid index into a freshly
// allocated configuration. The grid size is cached at construction, so
// decoding costs one pass over the parameters — no per-call product.
func (s *Space) FromGridIndex64(idx uint64) Config {
	grid, ok := s.GridSize64()
	if ok && idx >= grid {
		panic(fmt.Sprintf("space: grid index %d outside [0,%d)", idx, grid))
	}
	c := make(Config, len(s.params))
	s.decodeGridIndex(idx, c)
	return c
}

// decodeGridIndex writes the mixed-radix digits of idx into c (which
// must have NumParams entries) without allocating. Bounds checking is
// the caller's responsibility.
func (s *Space) decodeGridIndex(idx uint64, c Config) {
	for i := len(s.cards) - 1; i >= 0; i-- {
		k := uint64(s.cards[i])
		c[i] = float64(idx % k)
		idx /= k
	}
}

// Sample draws a uniformly random valid configuration. For constrained
// spaces it uses rejection sampling; it panics after too many
// consecutive rejections (a sign the constraint leaves almost nothing).
func (s *Space) Sample(r *stats.RNG) Config {
	const maxTries = 1_000_000
	for try := 0; try < maxTries; try++ {
		c := make(Config, len(s.params))
		for i, p := range s.params {
			switch p.Kind {
			case DiscreteKind:
				c[i] = float64(r.Intn(p.Cardinality()))
			case ContinuousKind:
				c[i] = p.Lo + r.Float64()*(p.Hi-p.Lo)
			}
		}
		if s.constraint == nil || s.constraint(c) {
			return c
		}
	}
	panic("space: Sample rejected 1e6 candidates; constraint too restrictive")
}

// Neighbors returns all valid configurations at Hamming distance one
// from c (changing exactly one discrete parameter to another level).
// Continuous parameters are skipped. GEIST's parameter-space graph is
// built from this relation.
func (s *Space) Neighbors(c Config) []Config {
	var out []Config
	for i, p := range s.params {
		if p.Kind != DiscreteKind {
			continue
		}
		for l := 0; l < p.Cardinality(); l++ {
			if float64(l) == c[i] {
				continue
			}
			n := c.Clone()
			n[i] = float64(l)
			if s.constraint == nil || s.constraint(n) {
				out = append(out, n)
			}
		}
	}
	return out
}

// Key renders a configuration as a canonical, hashable string.
func (s *Space) Key(c Config) string {
	var b strings.Builder
	for i, v := range c {
		if i > 0 {
			b.WriteByte('|')
		}
		if s.params[i].Kind == DiscreteKind {
			b.WriteString(strconv.Itoa(int(v)))
		} else {
			b.WriteString(strconv.FormatFloat(v, 'g', 17, 64))
		}
	}
	return b.String()
}

// Describe renders a configuration with parameter names and level
// labels, for reports and logs.
func (s *Space) Describe(c Config) string {
	var b strings.Builder
	for i, p := range s.params {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.Name)
		b.WriteByte('=')
		if p.Kind == DiscreteKind {
			b.WriteString(p.Level(int(c[i])))
		} else {
			b.WriteString(strconv.FormatFloat(c[i], 'g', 6, 64))
		}
	}
	return b.String()
}

// OneHotLen returns the length of the one-hot/normalized feature
// encoding used by the NN baseline: one slot per level of every
// categorical parameter, one normalized slot per ordinal or continuous
// parameter.
func (s *Space) OneHotLen() int {
	n := 0
	for _, p := range s.params {
		switch {
		case p.Kind == ContinuousKind:
			n++
		case p.Numeric != nil:
			n++ // ordinal: single normalized slot
		default:
			n += p.Cardinality()
		}
	}
	return n
}

// EncodeOneHot writes the feature encoding of c into dst, which must
// have length OneHotLen. Ordinal and continuous parameters are
// min-max normalized to [0,1]; categorical parameters are one-hot.
func (s *Space) EncodeOneHot(c Config, dst []float64) {
	if len(dst) != s.OneHotLen() {
		panic("space: EncodeOneHot with wrong destination length")
	}
	for i := range dst {
		dst[i] = 0
	}
	pos := 0
	for i, p := range s.params {
		switch {
		case p.Kind == ContinuousKind:
			dst[pos] = (c[i] - p.Lo) / (p.Hi - p.Lo)
			pos++
		case p.Numeric != nil:
			lo, hi := p.Numeric[0], p.Numeric[0]
			for _, v := range p.Numeric {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			if hi == lo {
				dst[pos] = 0
			} else {
				dst[pos] = (p.Numeric[int(c[i])] - lo) / (hi - lo)
			}
			pos++
		default:
			dst[pos+int(c[i])] = 1
			pos += p.Cardinality()
		}
	}
}
