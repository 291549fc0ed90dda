package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/hpcautotune/hiperbot/internal/space"
)

func TestHistoryCSVRoundTrip(t *testing.T) {
	sp := quadSpace()
	h := NewHistory(sp)
	h.MustAdd(space.Config{1, 2}, 3.5)
	h.MustAdd(space.Config{0, 0}, 13)
	h.MustAdd(space.Config{7, 7}, 41)
	var buf bytes.Buffer
	if err := h.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadHistoryCSV(sp, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 3 {
		t.Fatalf("len %d", back.Len())
	}
	// Evaluation order preserved.
	for i := 0; i < 3; i++ {
		if !back.At(i).Config.Equal(h.At(i).Config) || back.At(i).Value != h.At(i).Value {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

func TestHistoryWriteCSVEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewHistory(quadSpace()).WriteCSV(&buf); err == nil {
		t.Fatal("empty history serialized")
	}
}

// csvSpace mixes a discrete and a continuous parameter, so a history
// CSV can carry a level label that parses and a value out of bounds.
func csvSpace() *space.Space {
	return space.New(space.Discrete("layout", "aos", "soa"), space.Continuous("x", 0, 1))
}

// TestLoadHistoryCSVRejectsInvalidRows: every row the decoder accepts
// must pass Space.Check and be unique, as Tuner.Resume and History
// assume; a resumed campaign must not start from x=5 on a [0,1]
// parameter.
func TestLoadHistoryCSVRejectsInvalidRows(t *testing.T) {
	sp := csvSpace()
	for name, body := range map[string]string{
		"above bounds":  "aos,5,1\n",
		"below bounds":  "aos,-0.5,1\n",
		"NaN value":     "soa,NaN,1\n",
		"infinite":      "soa,+Inf,1\n",
		"unknown level": "aosoa,0.5,1\n",
		"duplicate":     "aos,0.5,1\nsoa,1,2\naos,0.5,3\n",
		"no rows":       "",
	} {
		if h, err := LoadHistoryCSV(sp, strings.NewReader("layout,x,value\n"+body)); err == nil {
			t.Errorf("%s: accepted %d rows", name, h.Len())
		}
	}
	if _, err := LoadHistoryCSV(sp, strings.NewReader("x,layout,value\n0.5,aos,1\n")); err == nil {
		t.Error("swapped header accepted")
	}
	h, err := LoadHistoryCSV(sp, strings.NewReader("layout,x,value\naos,0,1\nsoa,1,NaN\naos,-0,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 3 || !math.IsNaN(h.At(1).Value) || !math.Signbit(h.At(2).Config[1]) {
		t.Fatalf("valid rows read back as %v", h.Observations())
	}
}

// FuzzLoadHistoryCSV checks the decoder hiperbot -resume reads from
// disk: no panic; every accepted row passes Space.Check and is unique;
// an accepted history writes, re-reads and writes again bit for bit.
func FuzzLoadHistoryCSV(f *testing.F) {
	for _, s := range []string{
		"layout,x,value\naos,0.5,1\nsoa,1,2\n",
		"layout,x,value\naos,5,1\n",
		"layout,x,value\nsoa,NaN,1\n",
		"layout,x,value\naos,-0,-0\naos,0,+Inf\n",
		"layout,x,value\naos,0.5,1\naos,0.50,2\n",
		"layout,x,value\naos,0x1p-2,1e-320\n",
		"layout,x,value\n\"soa\",1,\"3\"\n",
		"layout,x\naos,0.5\n",
		"",
	} {
		f.Add(s)
	}
	sp := csvSpace()
	f.Fuzz(func(t *testing.T, text string) {
		h, err := LoadHistoryCSV(sp, strings.NewReader(text))
		if err != nil {
			return
		}
		seen := make(map[string]bool, h.Len())
		for _, o := range h.Observations() {
			if err := sp.Check(o.Config); err != nil {
				t.Fatalf("accepted invalid row %v: %v", o.Config, err)
			}
			if k := sp.Key(o.Config); seen[k] {
				t.Fatalf("accepted duplicate row %v", o.Config)
			} else {
				seen[k] = true
			}
		}
		var first bytes.Buffer
		if err := h.WriteCSV(&first); err != nil {
			t.Fatalf("accepted history does not serialize: %v", err)
		}
		back, err := LoadHistoryCSV(sp, bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("serialized history does not re-parse: %v\n%s", err, first.Bytes())
		}
		if back.Len() != h.Len() {
			t.Fatalf("round trip changed %d rows to %d", h.Len(), back.Len())
		}
		for i := 0; i < h.Len(); i++ {
			a, b := h.At(i), back.At(i)
			same := math.Float64bits(a.Value) == math.Float64bits(b.Value)
			for d := range a.Config {
				same = same && math.Float64bits(a.Config[d]) == math.Float64bits(b.Config[d])
			}
			if !same {
				t.Fatalf("row %d: %v=%v read back as %v=%v", i, a.Config, a.Value, b.Config, b.Value)
			}
		}
		var second bytes.Buffer
		if err := back.WriteCSV(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("second write differs:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}

func TestResumeContinuesWithoutRepeats(t *testing.T) {
	sp := quadSpace()
	// Campaign part 1: 15 evaluations, checkpointed.
	first, err := NewTuner(sp, quadObjective, Options{InitialSamples: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Run(15); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := first.History().WriteCSV(&ckpt); err != nil {
		t.Fatal(err)
	}

	// Campaign part 2: resume and continue to 30 total.
	restored, err := LoadHistoryCSV(sp, &ckpt)
	if err != nil {
		t.Fatal(err)
	}
	second, err := NewTuner(sp, quadObjective, Options{InitialSamples: 8, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Resume(restored); err != nil {
		t.Fatal(err)
	}
	if second.Evaluations() != 15 {
		t.Fatalf("resumed evaluations = %d", second.Evaluations())
	}
	best, err := second.Run(30)
	if err != nil {
		t.Fatal(err)
	}
	if best.Value != 0 {
		t.Fatalf("resumed campaign best = %+v", best)
	}
	// No configuration evaluated twice across both parts: the history
	// itself enforces this, so reaching 30 observations proves it.
	if second.Evaluations() != 30 {
		t.Fatalf("evaluations = %d", second.Evaluations())
	}
}

func TestResumeValidation(t *testing.T) {
	sp := quadSpace()
	tn, err := NewTuner(sp, quadObjective, Options{InitialSamples: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.Resume(nil); err == nil {
		t.Error("nil history accepted")
	}
	if err := tn.Resume(NewHistory(sp)); err == nil {
		t.Error("empty history accepted")
	}
	// A history from a different-arity space must be rejected.
	other := space.New(space.DiscreteInts("z", 0, 1))
	oh := NewHistory(other)
	oh.MustAdd(space.Config{0}, 1)
	if err := tn.Resume(oh); err == nil {
		t.Error("foreign history accepted")
	}
	// After stepping, Resume is forbidden.
	good := NewHistory(sp)
	good.MustAdd(space.Config{0, 0}, 13)
	if _, err := tn.Step(); err != nil {
		t.Fatal(err)
	}
	if err := tn.Resume(good); err == nil {
		t.Error("Resume after Step accepted")
	}
}

func TestResumePastInitialGoesStraightToModel(t *testing.T) {
	sp := quadSpace()
	seed := NewHistory(sp)
	// 20 observations with a clear signal toward (2,3).
	r := 0
	for p := 0; p < 8 && r < 20; p++ {
		for q := 0; q < 8 && r < 20; q++ {
			if (p+q)%3 == 0 {
				seed.MustAdd(space.Config{float64(p), float64(q)}, quadObjective(space.Config{float64(p), float64(q)}))
				r++
			}
		}
	}
	tn, err := NewTuner(sp, quadObjective, Options{InitialSamples: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.Resume(seed); err != nil {
		t.Fatal(err)
	}
	// The very next step must be model-guided (not a random initial
	// draw): with a strong gradient toward (2,3), the pick should be
	// near-optimal.
	obs, err := tn.Step()
	if err != nil {
		t.Fatal(err)
	}
	if obs.Value > 20 {
		t.Fatalf("first post-resume pick %v looks random (value %v)", obs.Config, obs.Value)
	}
	tpe, ok := tn.Model().(*TPEModel)
	if !ok {
		t.Fatalf("default engine model is %T, want *TPEModel", tn.Model())
	}
	if tpe.Surrogate() == nil {
		t.Fatal("no surrogate built on the resumed history")
	}
}
