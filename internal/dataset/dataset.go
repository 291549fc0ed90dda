// Package dataset holds (configuration, metric) tables — the central
// evaluation artifact of the paper. Each of the paper's case studies is
// a pre-collected table mapping every valid configuration of an
// application to a measured objective value (execution time or energy);
// tuners treat the table as an expensive black-box objective that they
// query one configuration at a time.
package dataset

import (
	"fmt"
	"io"
	"sort"

	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/space"
	"github.com/hpcautotune/hiperbot/internal/stats"
)

// Table is an immutable set of evaluated configurations. Lower metric
// values are better (both execution time and energy are minimized).
type Table struct {
	// Name identifies the dataset ("kripke-exec", "hypre", ...).
	Name string
	// Metric names the objective ("execution time (s)", "energy (J)").
	Metric string
	// Space describes the parameters of every configuration.
	Space *space.Space

	configs []space.Config
	values  []float64
	index   *core.Pool // rows by configuration identity; read-only after New
	sorted  []float64  // values sorted ascending, built lazily
}

// New builds a table from parallel slices of configurations and metric
// values. Configurations must be unique and valid in the space.
func New(name, metric string, sp *space.Space, configs []space.Config, values []float64) (*Table, error) {
	if len(configs) != len(values) {
		return nil, fmt.Errorf("dataset: %d configs but %d values", len(configs), len(values))
	}
	if len(configs) == 0 {
		return nil, fmt.Errorf("dataset: empty table %q", name)
	}
	for i, c := range configs {
		if err := sp.Check(c); err != nil {
			return nil, fmt.Errorf("dataset %q row %d: %w", name, i, err)
		}
	}
	index, err := core.NewPool(sp, configs)
	if err != nil {
		return nil, fmt.Errorf("dataset %q: %w", name, err)
	}
	return &Table{Name: name, Metric: metric, Space: sp, configs: configs, values: values, index: index}, nil
}

// MustNew is New but panics on error; for generators whose output is
// correct by construction.
func MustNew(name, metric string, sp *space.Space, configs []space.Config, values []float64) *Table {
	t, err := New(name, metric, sp, configs, values)
	if err != nil {
		panic(err)
	}
	return t
}

// Len returns the number of configurations in the table.
func (t *Table) Len() int { return len(t.configs) }

// Config returns the i-th configuration (shared; do not mutate).
func (t *Table) Config(i int) space.Config { return t.configs[i] }

// Configs returns every configuration in row order, e.g. as a tuner's
// Options.Candidates (shared; do not mutate).
func (t *Table) Configs() []space.Config { return t.configs }

// Value returns the metric of the i-th configuration.
func (t *Table) Value(i int) float64 { return t.values[i] }

// Values returns a copy of all metric values.
func (t *Table) Values() []float64 {
	return append([]float64(nil), t.values...)
}

// Lookup returns the metric for a configuration and whether it exists.
func (t *Table) Lookup(c space.Config) (float64, bool) {
	i := t.index.IndexOf(c)
	if i < 0 {
		return 0, false
	}
	return t.values[i], true
}

// IndexOf returns the row of a configuration, or -1 if absent.
func (t *Table) IndexOf(c space.Config) int { return t.index.IndexOf(c) }

// Objective returns a function evaluating the table as a black-box
// objective. Evaluating a configuration that is not in the table
// panics: the tuner is only allowed to propose valid, measured
// configurations, so an unknown key indicates a bug.
func (t *Table) Objective() func(space.Config) float64 {
	return func(c space.Config) float64 {
		v, ok := t.Lookup(c)
		if !ok {
			panic(fmt.Sprintf("dataset %q: configuration %s not in table", t.Name, t.Space.Describe(c)))
		}
		return v
	}
}

// Best returns the row index, configuration, and value of the global
// optimum ("Exhaustive best" in the paper's figures).
func (t *Table) Best() (int, space.Config, float64) {
	best := 0
	for i, v := range t.values {
		if v < t.values[best] {
			best = i
		}
	}
	return best, t.configs[best], t.values[best]
}

// sortedValues returns the metric values sorted ascending (cached).
func (t *Table) sortedValues() []float64 {
	if t.sorted == nil {
		t.sorted = append([]float64(nil), t.values...)
		sort.Float64s(t.sorted)
	}
	return t.sorted
}

// PercentileValue returns y_l, the objective value at the best-l
// percentile (paper eq. 11: good configurations satisfy f(x) <= y_l).
// l is a fraction in (0, 1], e.g. 0.05 for the best 5 %.
func (t *Table) PercentileValue(l float64) float64 {
	if l <= 0 || l > 1 {
		panic("dataset: PercentileValue with l outside (0,1]")
	}
	return stats.QuantileSorted(t.sortedValues(), l)
}

// GoodSetPercentile returns the row indices of configurations within
// the best-l percentile (f(x) <= y_l), the good set of eq. 11.
func (t *Table) GoodSetPercentile(l float64) []int {
	yl := t.PercentileValue(l)
	var out []int
	for i, v := range t.values {
		if v <= yl {
			out = append(out, i)
		}
	}
	return out
}

// GoodSetTolerance returns the row indices of configurations within a
// (1+gamma) multiplicative tolerance of the best value
// (f(x) <= (1+gamma)*f(x_best)), the good set of eq. 12 used by the
// transfer-learning evaluation.
func (t *Table) GoodSetTolerance(gamma float64) []int {
	if gamma < 0 {
		panic("dataset: GoodSetTolerance with negative gamma")
	}
	_, _, best := t.Best()
	bound := (1 + gamma) * best
	var out []int
	for i, v := range t.values {
		if v <= bound {
			out = append(out, i)
		}
	}
	return out
}

// Stats summarizes the metric distribution.
func (t *Table) Stats() stats.Summary { return stats.Summarize(t.values) }

// WriteCSV writes the table with a header row of parameter names plus
// the metric name (space.WriteCSV).
func (t *Table) WriteCSV(w io.Writer) error {
	return t.Space.WriteCSV(w, t.Metric, t.configs, t.values)
}

// ReadCSV parses a table written by WriteCSV. The space must match the
// header's parameter columns in order.
func ReadCSV(name string, sp *space.Space, r io.Reader) (*Table, error) {
	metric, configs, values, err := sp.ReadCSV(r)
	if err != nil {
		return nil, fmt.Errorf("dataset %q: %w", name, err)
	}
	return New(name, metric, sp, configs, values)
}
