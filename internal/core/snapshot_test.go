package core

import (
	"math"
	"testing"

	"github.com/hpcautotune/hiperbot/internal/space"
)

// TestPackObservationsRoundTrip checks that the packed snapshot form
// reproduces every observation bit-for-bit: config vectors, values
// with awkward float representations, metrics maps, and objective
// vectors.
func TestPackObservationsRoundTrip(t *testing.T) {
	sp := space.New(
		space.DiscreteInts("a", 0, 1, 2, 3),
		space.DiscreteInts("b", 10, 20, 30),
	)
	h := NewHistory(sp)
	// Values chosen to break any decimal round-trip: 0.1+0.2 has no
	// short representation, Nextafter differs in the last ulp only.
	awkward := []float64{0.1 + 0.2, math.Nextafter(1.0, 2.0), -0.0, 1e-308, math.MaxFloat64}
	obsIn := []Observation{
		{Config: space.Config{0, 0}, Value: awkward[0]},
		{Config: space.Config{1, 2}, Value: awkward[1], Metrics: map[string]float64{"lat": awkward[2], "cost": 3.5}},
		{Config: space.Config{2, 1}, Value: awkward[3], Objectives: []float64{awkward[4], 2}},
		{Config: space.Config{3, 0}, Value: 42, Metrics: map[string]float64{"lat": 1}, Objectives: []float64{1, 2}},
	}
	for _, o := range obsIn {
		if err := h.AddObs(o); err != nil {
			t.Fatal(err)
		}
	}

	packed := PackObservations(h.Observations())
	out, err := UnpackObservations(sp, packed, h.Len())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(obsIn) {
		t.Fatalf("unpacked %d observations, want %d", len(out), len(obsIn))
	}
	for i, got := range out {
		want := obsIn[i]
		for d := range want.Config {
			if math.Float64bits(got.Config[d]) != math.Float64bits(want.Config[d]) {
				t.Errorf("obs %d config[%d] = %v, want bit-identical %v", i, d, got.Config[d], want.Config[d])
			}
		}
		if math.Float64bits(got.Value) != math.Float64bits(want.Value) {
			t.Errorf("obs %d value = %v, want bit-identical %v", i, got.Value, want.Value)
		}
		if len(got.Metrics) != len(want.Metrics) {
			t.Errorf("obs %d metrics = %v, want %v", i, got.Metrics, want.Metrics)
		}
		for k, v := range want.Metrics {
			if math.Float64bits(got.Metrics[k]) != math.Float64bits(v) {
				t.Errorf("obs %d metric %q = %v, want %v", i, k, got.Metrics[k], v)
			}
		}
		if len(got.Objectives) != len(want.Objectives) {
			t.Errorf("obs %d objectives = %v, want %v", i, got.Objectives, want.Objectives)
		}
		for j, v := range want.Objectives {
			if math.Float64bits(got.Objectives[j]) != math.Float64bits(v) {
				t.Errorf("obs %d objective %d = %v, want %v", i, j, got.Objectives[j], v)
			}
		}
	}

	// A rebuilt history replays into an identical state: same best,
	// same duplicate rejection.
	h2 := NewHistory(sp)
	for _, o := range out {
		if err := h2.AddObs(o); err != nil {
			t.Fatal(err)
		}
	}
	if h2.Best().Value != h.Best().Value {
		t.Fatalf("replayed best %v, want %v", h2.Best().Value, h.Best().Value)
	}
	if err := h2.AddObs(obsIn[0]); err == nil {
		t.Fatal("replayed history accepted a duplicate observation")
	}
}

// TestUnpackObservationsValidation checks that truncated payloads and
// out-of-range extras fail loudly instead of resuming a wrong history.
func TestUnpackObservationsValidation(t *testing.T) {
	sp := space.New(space.DiscreteInts("a", 0, 1, 2, 3))
	h := NewHistory(sp)
	h.MustAdd(space.Config{1}, 1)
	h.MustAdd(space.Config{2}, 2)
	packed := PackObservations(h.Observations())

	if _, err := UnpackObservations(sp, packed, 3); err == nil {
		t.Fatal("unpack accepted an event count larger than the payload")
	}
	bad := packed
	bad.Extras = []PackedExtra{{Index: 7, Metrics: map[string]float64{"x": 1}}}
	if _, err := UnpackObservations(sp, bad, 2); err == nil {
		t.Fatal("unpack accepted an extra row outside the observation range")
	}
	bad = packed
	bad.Configs = packed.Configs[:len(packed.Configs)-3]
	if _, err := UnpackObservations(sp, bad, 2); err == nil {
		t.Fatal("unpack accepted a truncated config payload")
	}

	// Counts a checksum-valid header can still claim: negative, or so
	// large that a byte size computed by multiplication wraps around to
	// the empty payload's.
	params := func(n int) *space.Space {
		ps := make([]space.Param, n)
		for i := range ps {
			ps[i] = space.DiscreteInts(string(rune('a'+i)), 0, 1)
		}
		return space.New(ps...)
	}
	for _, tc := range []struct {
		params, n int
	}{
		{1, -1},
		{1, 1 << 61},
		{3, 1 << 59},
		{4, 1 << 62},
	} {
		if _, err := UnpackObservations(params(tc.params), PackedObservations{}, tc.n); err == nil {
			t.Errorf("unpack accepted %d observations of %d parameters from an empty payload", tc.n, tc.params)
		}
	}
}
