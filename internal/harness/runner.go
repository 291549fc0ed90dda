package harness

import (
	"fmt"

	"github.com/hpcautotune/hiperbot/internal/dataset"
	"github.com/hpcautotune/hiperbot/internal/par"
)

// CurveSpec describes one best-configuration/recall experiment: a
// dataset, the sample-size checkpoints of the figure's x-axis, the
// recall definition, and the number of repetitions.
type CurveSpec struct {
	Table *dataset.Table
	// Checkpoints are the sample sizes at which metrics are recorded
	// (the x-axis ticks of Figs. 2-6).
	Checkpoints []int
	// Repetitions is the number of independent runs per method
	// (50 in the paper).
	Repetitions int
	// Good is the recall good set; nil defaults to the best-5%-
	// percentile set of eq. 11.
	Good *GoodSet
	// BaseSeed offsets the per-repetition seeds for reproducibility.
	BaseSeed uint64
	// Parallelism bounds concurrent repetitions (0 = GOMAXPROCS).
	Parallelism int
}

func (s CurveSpec) withDefaults() CurveSpec {
	if s.Repetitions == 0 {
		s.Repetitions = 50
	}
	if s.Good == nil {
		s.Good = PercentileGoodSet(s.Table, 0.05)
	}
	return s
}

func (s CurveSpec) validate() error {
	if s.Table == nil {
		return fmt.Errorf("harness: CurveSpec without a table")
	}
	if len(s.Checkpoints) == 0 {
		return fmt.Errorf("harness: CurveSpec without checkpoints")
	}
	maxCP := 0
	prev := 0
	for _, cp := range s.Checkpoints {
		if cp <= prev {
			return fmt.Errorf("harness: checkpoints must be strictly increasing, got %v", s.Checkpoints)
		}
		prev = cp
		if cp > maxCP {
			maxCP = cp
		}
	}
	if maxCP > s.Table.Len() {
		return fmt.Errorf("harness: checkpoint %d exceeds dataset size %d", maxCP, s.Table.Len())
	}
	return nil
}

// RunCurve executes a method Repetitions times (each run uses the
// maximum checkpoint as its budget — all methods here are incremental,
// so prefixes of one long run equal shorter runs with the same seed)
// and aggregates the per-checkpoint metrics.
func RunCurve(m Method, spec CurveSpec) (*Curve, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	budget := spec.Checkpoints[len(spec.Checkpoints)-1]

	bests := make([][]float64, spec.Repetitions)
	recalls := make([][]float64, spec.Repetitions)
	err := par.Each(spec.Repetitions, spec.Parallelism, func(rep int) error {
		h, err := m.Run(spec.Table, budget, spec.BaseSeed+uint64(rep)*7919)
		if err != nil {
			return err
		}
		bests[rep], recalls[rep], err = prefixMetrics(spec.Table, spec.Good, h, spec.Checkpoints)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("harness: method %s: %w", m.Name, err)
	}
	return aggregate(m.Name, spec.Checkpoints, bests, recalls), nil
}

// RunCurves runs several methods against the same spec.
func RunCurves(methods []Method, spec CurveSpec) ([]*Curve, error) {
	out := make([]*Curve, 0, len(methods))
	for _, m := range methods {
		c, err := RunCurve(m, spec)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}
