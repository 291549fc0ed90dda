package core

import (
	"bytes"
	"strings"
	"testing"

	"github.com/hpcautotune/hiperbot/internal/space"
)

func TestRecorderStreamsEvents(t *testing.T) {
	sp := quadSpace()
	var buf bytes.Buffer
	rec := NewRecorder(&buf, sp)
	tn, err := NewTuner(sp, quadObjective, Options{
		InitialSamples: 5, Seed: 4, OnStep: rec.OnStep,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Run(12); err != nil {
		t.Fatal(err)
	}
	if rec.Err() != nil {
		t.Fatal(rec.Err())
	}
	if rec.Events() != 12 {
		t.Fatalf("events = %d", rec.Events())
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 12 {
		t.Fatalf("parsed %d events", len(events))
	}
	prevBest := events[0].BestSoFar
	for i, ev := range events {
		if ev.Iteration != i {
			t.Fatalf("iteration %d at position %d", ev.Iteration, i)
		}
		if len(ev.Config) != 2 {
			t.Fatalf("config map %v", ev.Config)
		}
		if ev.BestSoFar > prevBest {
			t.Fatalf("best_so_far increased at %d", i)
		}
		prevBest = ev.BestSoFar
	}
	if events[len(events)-1].BestSoFar != tn.Best().Value {
		t.Fatal("final best mismatch")
	}
}

func TestRecorderConfigLabels(t *testing.T) {
	sp := histSpace() // a: x/y/z, b: ints
	var buf bytes.Buffer
	rec := NewRecorder(&buf, sp)
	rec.OnStep(0, Observation{Config: space.Config{2, 1}, Value: 3})
	out := buf.String()
	for _, want := range []string{`"a":"z"`, `"b":"2"`, `"value":3`} {
		if !strings.Contains(out, want) {
			t.Errorf("event missing %s: %s", want, out)
		}
	}
}

// TestRecorderZeroValueMinimizes pins the satellite contract: a
// recorder without SetDirection tracks best_so_far as the running
// minimum, exactly the legacy behavior.
func TestRecorderZeroValueMinimizes(t *testing.T) {
	sp := histSpace()
	var buf bytes.Buffer
	rec := NewRecorder(&buf, sp)
	values := []float64{5, 3, 4, 2, 6}
	for i, v := range values {
		rec.OnStep(i, Observation{Config: space.Config{0, 0}, Value: v})
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	wantBest := []float64{5, 3, 3, 2, 2}
	for i, ev := range events {
		if ev.BestSoFar != wantBest[i] {
			t.Fatalf("minimize best_so_far[%d] = %v, want %v", i, ev.BestSoFar, wantBest[i])
		}
	}
}

// TestRecorderResumeObsStartsRunningBest: after ResumeObs the first
// recorded event reports the resumed history's best, not its own worse
// value, and events count only what this recorder wrote.
func TestRecorderResumeObsStartsRunningBest(t *testing.T) {
	sp := histSpace()
	var buf bytes.Buffer
	rec := NewRecorder(&buf, sp)
	rec.ResumeObs([]Observation{
		{Config: space.Config{0, 0}, Value: 4},
		{Config: space.Config{0, 0}, Value: 1},
		{Config: space.Config{0, 0}, Value: 3},
	})
	for i, v := range []float64{9, 0.5, 2} {
		rec.OnStep(3+i, Observation{Config: space.Config{0, 0}, Value: v})
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	wantBest := []float64{1, 0.5, 0.5}
	for i, ev := range events {
		if ev.BestSoFar != wantBest[i] {
			t.Fatalf("resumed best_so_far[%d] = %v, want %v", i, ev.BestSoFar, wantBest[i])
		}
	}
	if rec.Events() != 3 {
		t.Fatalf("events = %d, want 3", rec.Events())
	}
}

func TestRecorderMaximizeDirection(t *testing.T) {
	sp := histSpace()
	var buf bytes.Buffer
	rec := NewRecorder(&buf, sp)
	rec.SetDirection(Maximize)
	values := []float64{5, 3, 7, 2, 6}
	for i, v := range values {
		rec.OnStep(i, Observation{Config: space.Config{0, 0}, Value: v})
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	wantBest := []float64{5, 5, 7, 7, 7}
	for i, ev := range events {
		if ev.BestSoFar != wantBest[i] {
			t.Fatalf("maximize best_so_far[%d] = %v, want %v", i, ev.BestSoFar, wantBest[i])
		}
	}
	// Switching direction mid-stream would corrupt the running best.
	defer func() {
		if recover() == nil {
			t.Fatal("SetDirection after events should panic")
		}
	}()
	rec.SetDirection(Minimize)
}

// TestRecorderMetricsRoundTrip: multi-metric observations journal
// their raw metrics and parse back bit-identically; metric-less
// events omit the field.
func TestRecorderMetricsRoundTrip(t *testing.T) {
	sp := histSpace()
	var buf bytes.Buffer
	rec := NewRecorder(&buf, sp)
	metrics := map[string]float64{"p95_latency_ms": 12.25, "cost": 0.1}
	rec.OnStep(0, Observation{Config: space.Config{0, 0}, Value: 1, Metrics: metrics})
	rec.OnStep(1, Observation{Config: space.Config{1, 0}, Value: 2})
	if strings.Count(buf.String(), "metrics") != 1 {
		t.Fatalf("metric-less event should omit the metrics field: %s", buf.String())
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events[0].Metrics) != 2 || events[0].Metrics["p95_latency_ms"] != 12.25 || events[0].Metrics["cost"] != 0.1 {
		t.Fatalf("metrics round-trip = %v", events[0].Metrics)
	}
	if events[1].Metrics != nil {
		t.Fatalf("second event metrics = %v, want nil", events[1].Metrics)
	}
}

func TestReadEventsRejectsGarbage(t *testing.T) {
	if _, err := ReadEvents(strings.NewReader("{not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}
