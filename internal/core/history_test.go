package core

import (
	"testing"

	"github.com/hpcautotune/hiperbot/internal/space"
)

func histSpace() *space.Space {
	return space.New(
		space.Discrete("a", "x", "y", "z"),
		space.DiscreteInts("b", 1, 2, 4, 8),
	)
}

func TestHistoryAddAndBest(t *testing.T) {
	h := NewHistory(histSpace())
	h.MustAdd(space.Config{0, 0}, 5)
	h.MustAdd(space.Config{1, 0}, 3)
	h.MustAdd(space.Config{2, 0}, 7)
	if h.Len() != 3 {
		t.Fatalf("Len = %d", h.Len())
	}
	best := h.Best()
	if best.Value != 3 || !best.Config.Equal(space.Config{1, 0}) {
		t.Fatalf("Best = %+v", best)
	}
}

func TestHistoryRejectsDuplicates(t *testing.T) {
	h := NewHistory(histSpace())
	h.MustAdd(space.Config{0, 0}, 5)
	if err := h.Add(space.Config{0, 0}, 6); err == nil {
		t.Fatal("duplicate accepted")
	}
	if h.Len() != 1 {
		t.Fatal("failed add mutated history")
	}
}

func TestHistoryContains(t *testing.T) {
	h := NewHistory(histSpace())
	h.MustAdd(space.Config{1, 2}, 1)
	if !h.Contains(space.Config{1, 2}) || h.Contains(space.Config{2, 1}) {
		t.Fatal("Contains wrong")
	}
}

func TestHistoryAddClonesConfig(t *testing.T) {
	h := NewHistory(histSpace())
	c := space.Config{1, 2}
	h.MustAdd(c, 1)
	c[0] = 0
	if !h.At(0).Config.Equal(space.Config{1, 2}) {
		t.Fatal("history aliases caller's config")
	}
}

func TestHistoryBestPanicsWhenEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistory(histSpace()).Best()
}

func TestBestTrajectoryMonotone(t *testing.T) {
	h := NewHistory(histSpace())
	vals := []float64{5, 7, 3, 9, 2, 4}
	for i, v := range vals {
		h.MustAdd(space.Config{float64(i % 3), float64(i % 4)}, v)
	}
	want := []float64{5, 5, 3, 3, 2, 2}
	got := h.BestTrajectory()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trajectory = %v, want %v", got, want)
		}
	}
}

func TestHistoryValuesOrder(t *testing.T) {
	h := NewHistory(histSpace())
	h.MustAdd(space.Config{0, 0}, 5)
	h.MustAdd(space.Config{0, 1}, 2)
	vs := h.Values()
	if vs[0] != 5 || vs[1] != 2 {
		t.Fatalf("Values = %v", vs)
	}
}

// TestHistoryRejectsWrongArity: a row shorter or longer than the space
// is an error before any state changes, and is never a member.
func TestHistoryRejectsWrongArity(t *testing.T) {
	h := NewHistory(histSpace())
	for _, c := range []space.Config{{1}, {1, 0, 1}, {}} {
		if err := h.Add(c, 1); err == nil {
			t.Fatalf("Add(%v) accepted a row of arity %d on a 2-parameter space", c, len(c))
		}
		if h.Len() != 0 || h.Generation() != 0 || h.Contains(c) {
			t.Fatalf("rejected Add(%v) changed the history", c)
		}
	}
	h.MustAdd(space.Config{1, 0}, 1)
	if h.Contains(space.Config{1}) || h.Contains(space.Config{1, 0, 1}) {
		t.Fatal("a row of the wrong arity is reported evaluated")
	}
}

// TestHistoryDuplicateOutOfRangeErrors: AddObs checks arity only, so a
// row with an out-of-range level can be stored; repeating it must
// return the duplicate error, not panic while describing the row.
func TestHistoryDuplicateOutOfRangeErrors(t *testing.T) {
	h := NewHistory(histSpace())
	h.MustAdd(space.Config{-1, 7}, 1)
	if err := h.Add(space.Config{-1, 7}, 2); err == nil {
		t.Fatal("duplicate accepted")
	}
}
