package core

import (
	"fmt"
	"io"

	"github.com/hpcautotune/hiperbot/internal/space"
)

// Persistence: tuning campaigns over real applications run for hours
// and die for boring reasons (node reclaimed, queue timeout). A
// History can be checkpointed to CSV after every evaluation and a new
// Tuner resumed from it via Options.Resume, continuing exactly where
// the campaign stopped — no evaluations are repeated because resumed
// configurations are removed from the candidate pool.

// WriteCSV serializes the history in evaluation order using the same
// column format as dataset CSVs (parameter columns, then "value").
func (h *History) WriteCSV(w io.Writer) error {
	if h.Len() == 0 {
		return fmt.Errorf("core: cannot serialize an empty history")
	}
	configs := make([]space.Config, h.Len())
	values := make([]float64, h.Len())
	for i, o := range h.obs {
		if err := h.sp.Check(o.Config); err != nil {
			return fmt.Errorf("core: history row %d: %w", i, err)
		}
		configs[i] = o.Config
		values[i] = o.Value
	}
	return h.sp.WriteCSV(w, "value", configs, values)
}

// LoadHistoryCSV reads a history written by WriteCSV, preserving the
// evaluation order. Every row must be valid in sp and unique, and the
// file must hold at least one.
func LoadHistoryCSV(sp *space.Space, r io.Reader) (*History, error) {
	_, configs, values, err := sp.ReadCSV(r)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if len(configs) == 0 {
		return nil, fmt.Errorf("core: history CSV has no rows")
	}
	h := NewHistory(sp)
	for i, c := range configs {
		if err := sp.Check(c); err != nil {
			return nil, fmt.Errorf("core: history row %d: %w", i, err)
		}
		if err := h.Add(c, values[i]); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// Resume seeds the tuner with previously collected observations (e.g.
// a checkpointed history). Resumed observations count toward the
// initial-sample quota, so a tuner resumed past InitialSamples goes
// straight to model-guided selection. It must be called before any
// Step/Run, and every resumed configuration must be valid (and, under
// Ranking, part of the candidate pool).
func (t *Tuner) Resume(h *History) error {
	if h == nil {
		return fmt.Errorf("core: Resume with an empty history")
	}
	return t.ResumeObs(h.Observations())
}

// ResumeObs is Resume over a bare observation slice — the snapshot
// restore path, which unpacks canonical vectors directly instead of
// building an intermediate History first.
func (t *Tuner) ResumeObs(obs []Observation) error {
	if t.history.Len() > 0 {
		return fmt.Errorf("core: Resume after evaluations have started")
	}
	if len(obs) == 0 {
		return fmt.Errorf("core: Resume with an empty history")
	}
	t.history.Grow(len(obs))
	for _, o := range obs {
		if err := t.sp.Check(o.Config); err != nil {
			return fmt.Errorf("core: resumed observation invalid: %w", err)
		}
		if t.pool != nil {
			if t.pool.IndexOf(o.Config) < 0 {
				return fmt.Errorf("core: resumed configuration %s not in the candidate pool",
					t.sp.Describe(o.Config))
			}
		}
		if err := t.history.AddObs(o); err != nil {
			return err
		}
		t.markEvaluated(o.Config)
		t.iter++
	}
	return nil
}
