package space

import "fmt"

// Batch is a columnar view of N candidate configurations: one dense
// float64 column per parameter, instead of N row-oriented Configs.
// Ranking-style engines score every candidate in the space on every
// iteration, and the row layout makes that hot loop pay an interface
// dispatch and a pointer chase per parameter per candidate; a column
// walk turns it into contiguous slice traversals that the CPU
// prefetches well and that models can specialize per column (see
// Surrogate.ScoreBatch in internal/core).
//
// A Batch is immutable after construction. Slice returns sub-views
// that share the backing columns, so chunked parallel scoring over
// [lo, hi) windows allocates nothing.
type Batch struct {
	sp     *Space
	cols   [][]float64 // cols[d][i] = configuration i's value for parameter d
	n      int
	offset int // index of row 0 within the batch this was sliced from
}

// NewBatch transposes configs into columns. Every config must have
// exactly one value per parameter of sp; the configs themselves are
// not retained.
func NewBatch(sp *Space, configs []Config) (*Batch, error) {
	b := newBatch(sp, len(configs))
	for i, c := range configs {
		if len(c) != len(b.cols) {
			return nil, fmt.Errorf("space: batch config %d has %d values, space has %d parameters", i, len(c), len(b.cols))
		}
		for d := range b.cols {
			b.cols[d][i] = c[d]
		}
	}
	return b, nil
}

// NewGridBatch returns the columnar view of the first n valid
// configurations of a fully discrete space, in Enumerate's order,
// filled by one EachRange walk without materializing a row per
// configuration. It panics when the space has fewer than n valid
// configurations.
func NewGridBatch(sp *Space, n int) *Batch {
	b := newBatch(sp, n)
	i := 0
	if n > 0 {
		sp.Each(func(c Config) bool {
			for d, v := range c {
				b.cols[d][i] = v
			}
			i++
			return i < n
		})
	}
	if i < n {
		panic(fmt.Sprintf("space: NewGridBatch of %d rows over %d valid configurations", n, i))
	}
	return b
}

// newBatch allocates the zeroed columns of an n-row batch.
func newBatch(sp *Space, n int) *Batch {
	nd := sp.NumParams()
	b := &Batch{sp: sp, n: n, cols: make([][]float64, nd)}
	backing := make([]float64, nd*n)
	for d := range b.cols {
		b.cols[d] = backing[d*n : (d+1)*n]
	}
	return b
}

// Len returns the number of configurations in the batch.
func (b *Batch) Len() int { return b.n }

// Space returns the parameter space the batch is defined over.
func (b *Batch) Space() *Space { return b.sp }

// Col returns the column of values for parameter d, one entry per
// configuration. Callers must not mutate it.
func (b *Batch) Col(d int) []float64 { return b.cols[d] }

// Offset reports the index of this view's first row within the
// original (unsliced) batch. Models whose state is indexed by
// candidate position — e.g. graph-propagation beliefs over a fixed
// pool — use it to map view rows back to pool indices.
func (b *Batch) Offset() int { return b.offset }

// Slice returns the sub-view covering rows [lo, hi). The view shares
// the backing columns; no data is copied.
func (b *Batch) Slice(lo, hi int) *Batch {
	if lo < 0 || hi < lo || hi > b.n {
		panic(fmt.Sprintf("space: batch slice [%d,%d) out of range [0,%d)", lo, hi, b.n))
	}
	cols := make([][]float64, len(b.cols))
	for d := range cols {
		cols[d] = b.cols[d][lo:hi]
	}
	return &Batch{sp: b.sp, cols: cols, n: hi - lo, offset: b.offset + lo}
}

// Config materializes row i as a Config (a fresh allocation; the
// batch stays columnar).
func (b *Batch) Config(i int) Config {
	c := make(Config, len(b.cols))
	for d := range b.cols {
		c[d] = b.cols[d][i]
	}
	return c
}
