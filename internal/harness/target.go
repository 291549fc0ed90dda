package harness

import (
	"fmt"
	"math"

	"github.com/hpcautotune/hiperbot/internal/dataset"
	"github.com/hpcautotune/hiperbot/internal/par"
)

// This file measures evaluations-to-target: the number of objective
// evaluations a method needs before its best-found value enters a
// multiplicative tolerance of the exhaustive best. The paper's
// headline claim — "HiPerBOt uses 50% fewer evaluations to find the
// best configuration for Kripke in comparison to a competitive
// method" — is exactly a ratio of two such numbers.

// TargetSpec describes one evaluations-to-target experiment.
type TargetSpec struct {
	Table *dataset.Table
	// Tolerance is the relative gap to the exhaustive best that counts
	// as "found" (0 = the exact best).
	Tolerance float64
	// MaxBudget bounds each run; runs that never reach the target
	// report MaxBudget+1 (right-censored).
	MaxBudget int
	// Repetitions and BaseSeed as in CurveSpec.
	Repetitions int
	BaseSeed    uint64
	Parallelism int
}

// TargetResult aggregates a method's evaluations-to-target.
type TargetResult struct {
	Method string
	// Mean and Std of the evaluations needed (censored runs enter as
	// MaxBudget+1, biasing the mean conservatively).
	Mean, Std float64
	// Median of the per-run counts.
	Median float64
	// Reached counts the repetitions that hit the target in budget.
	Reached int
	// Repetitions echoes the spec.
	Repetitions int
}

// EvaluationsToTarget measures one method under the spec.
func EvaluationsToTarget(m Method, spec TargetSpec) (*TargetResult, error) {
	if spec.Table == nil {
		return nil, fmt.Errorf("harness: TargetSpec without a table")
	}
	if spec.Tolerance < 0 {
		return nil, fmt.Errorf("harness: negative tolerance")
	}
	if spec.MaxBudget < 1 || spec.MaxBudget > spec.Table.Len() {
		return nil, fmt.Errorf("harness: MaxBudget %d outside [1,%d]", spec.MaxBudget, spec.Table.Len())
	}
	if spec.Repetitions == 0 {
		spec.Repetitions = 50
	}
	if spec.Parallelism == 0 {
		spec.Parallelism = 1
	}
	_, _, best := spec.Table.Best()
	bound := best * (1 + spec.Tolerance)

	counts := make([]float64, spec.Repetitions)
	err := par.Each(spec.Repetitions, spec.Parallelism, func(rep int) error {
		h, err := m.Run(spec.Table, spec.MaxBudget, spec.BaseSeed+uint64(rep)*7919)
		if err != nil {
			return err
		}
		counts[rep] = float64(spec.MaxBudget + 1) // censored unless found
		for i, v := range h.BestTrajectory() {
			if v <= bound {
				counts[rep] = float64(i + 1)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", m.Name, err)
	}
	res := &TargetResult{Method: m.Name, Repetitions: spec.Repetitions}
	res.Mean, res.Std = meanStd(counts)
	res.Median = median(counts)
	for _, c := range counts {
		if c <= float64(spec.MaxBudget) {
			res.Reached++
		}
	}
	return res, nil
}

func median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return 0.5 * (sorted[n/2-1] + sorted[n/2])
}

// WelchT computes Welch's t statistic and approximate degrees of
// freedom for two samples summarized by (mean, std, n) — used to check
// that a method comparison is not noise. |t| > ~2 with df > ~10 marks
// a difference significant at roughly the 5% level.
func WelchT(mean1, std1 float64, n1 int, mean2, std2 float64, n2 int) (t, df float64) {
	if n1 < 2 || n2 < 2 {
		return 0, 0
	}
	v1 := std1 * std1 / float64(n1)
	v2 := std2 * std2 / float64(n2)
	if v1+v2 == 0 {
		if mean1 == mean2 {
			return 0, float64(n1 + n2 - 2)
		}
		return math.Inf(sign(mean1 - mean2)), float64(n1 + n2 - 2)
	}
	t = (mean1 - mean2) / math.Sqrt(v1+v2)
	df = (v1 + v2) * (v1 + v2) /
		(v1*v1/float64(n1-1) + v2*v2/float64(n2-1))
	return t, df
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}
