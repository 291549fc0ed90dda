package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"github.com/hpcautotune/hiperbot/internal/space"
)

// Recorder streams tuning-session events as JSON Lines — one object
// per evaluation — so long campaigns can be monitored (tail -f) and
// post-processed without custom parsing. Wire it up through
// Options.OnStep:
//
//	rec := core.NewRecorder(w, sp)
//	opts.OnStep = rec.OnStep
//
// Each line carries the iteration, the configuration (as a
// name→label map), the measured value (plus its raw metrics when the
// observation carried any), and the best value so far.
type Recorder struct {
	mu      sync.Mutex
	enc     *json.Encoder
	sp      *space.Space
	dir     Direction
	best    float64
	started bool // best holds a value: an event was recorded or a history resumed
	n       int
	err     error
}

// RecorderEvent is the JSONL schema of one evaluation. Metrics and
// Objectives are present only when the observation carried them:
// Metrics are the raw named measurements, Objectives the canonical
// all-minimize vector — journaling the vector verbatim lets a restart
// replay multi-objective histories bit-identically without
// re-deriving them from the metrics.
type RecorderEvent struct {
	Iteration  int                `json:"iteration"`
	Config     map[string]string  `json:"config"`
	Value      float64            `json:"value"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	Objectives []float64          `json:"objectives,omitempty"`
	BestSoFar  float64            `json:"best_so_far"`
}

// NewRecorder creates a recorder writing to w for configurations of sp.
// The zero-value direction is Minimize — best_so_far is the running
// minimum, exactly the legacy behavior.
func NewRecorder(w io.Writer, sp *space.Space) *Recorder {
	return &Recorder{enc: json.NewEncoder(w), sp: sp}
}

// SetDirection switches best-so-far tracking to the given objective
// direction. It must be called before the first event or resumed
// history; afterwards the running best would be stale under the new
// sense.
func (r *Recorder) SetDirection(d Direction) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started {
		panic("core: Recorder.SetDirection after the running best started")
	}
	r.dir = d
}

// ResumeObs starts the running best from a resumed history, so the
// first event recorded after a resume reports the history's best when
// that is better than its own value. Call it where the history is
// replayed into the tuner (Tuner.ResumeObs); it writes nothing.
func (r *Recorder) ResumeObs(obs []Observation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, o := range obs {
		r.trackLocked(o.Value)
	}
}

// trackLocked folds v into the running best.
func (r *Recorder) trackLocked(v float64) {
	if !r.started || r.dir.Better(v, r.best) {
		r.best, r.started = v, true
	}
}

// OnStep is an Options.OnStep callback. Write errors are sticky and
// reported by Err (OnStep has no error return).
func (r *Recorder) OnStep(iteration int, obs Observation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.trackLocked(obs.Value)
	r.n++
	if err := r.enc.Encode(RecorderEvent{
		Iteration:  iteration,
		Config:     r.sp.Labels(obs.Config),
		Value:      obs.Value,
		Metrics:    obs.Metrics,
		Objectives: obs.Objectives,
		BestSoFar:  r.best,
	}); err != nil && r.err == nil {
		r.err = err
	}
}

// Err returns the first write error, if any.
func (r *Recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Events returns the number of events recorded.
func (r *Recorder) Events() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// ReadEvents parses a JSONL stream written by a Recorder.
func ReadEvents(rd io.Reader) ([]RecorderEvent, error) {
	dec := json.NewDecoder(rd)
	var out []RecorderEvent
	for {
		var ev RecorderEvent
		if err := dec.Decode(&ev); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("core: reading events: %w", err)
		}
		out = append(out, ev)
	}
}
