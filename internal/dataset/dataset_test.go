package dataset

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/hpcautotune/hiperbot/internal/space"
	"github.com/hpcautotune/hiperbot/internal/stats"
)

func testTable(t *testing.T) *Table {
	t.Helper()
	sp := space.New(
		space.Discrete("solver", "pcg", "gmres"),
		space.DiscreteInts("omp", 1, 2),
	)
	configs := []space.Config{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	values := []float64{4.0, 2.0, 8.0, 1.0}
	tbl, err := New("test", "time (s)", sp, configs, values)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestTableLookup(t *testing.T) {
	tbl := testTable(t)
	v, ok := tbl.Lookup(space.Config{1, 1})
	if !ok || v != 1.0 {
		t.Fatalf("Lookup = %v,%v", v, ok)
	}
	if _, ok := tbl.Lookup(space.Config{0, 0, 0}); ok {
		t.Fatal("Lookup accepted wrong arity")
	}
}

func TestTableBest(t *testing.T) {
	tbl := testTable(t)
	i, c, v := tbl.Best()
	if i != 3 || v != 1.0 || !c.Equal(space.Config{1, 1}) {
		t.Fatalf("Best = %d,%v,%v", i, c, v)
	}
}

func TestObjectiveMatchesTable(t *testing.T) {
	tbl := testTable(t)
	f := tbl.Objective()
	for i := 0; i < tbl.Len(); i++ {
		if f(tbl.Config(i)) != tbl.Value(i) {
			t.Fatalf("objective mismatch at row %d", i)
		}
	}
}

func TestObjectivePanicsOnUnknown(t *testing.T) {
	tbl := testTable(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown configuration")
		}
	}()
	tbl.Objective()(space.Config{0, 0, 0})
}

func TestRejectsDuplicates(t *testing.T) {
	sp := space.New(space.Discrete("a", "x", "y"))
	_, err := New("d", "m", sp, []space.Config{{0}, {0}}, []float64{1, 2})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("expected duplicate error, got %v", err)
	}
}

func TestRejectsInvalidConfig(t *testing.T) {
	sp := space.New(space.Discrete("a", "x", "y"))
	_, err := New("d", "m", sp, []space.Config{{5}}, []float64{1})
	if err == nil {
		t.Fatal("expected error for invalid config")
	}
}

func TestRejectsLengthMismatchAndEmpty(t *testing.T) {
	sp := space.New(space.Discrete("a", "x"))
	if _, err := New("d", "m", sp, []space.Config{{0}}, nil); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := New("d", "m", sp, nil, nil); err == nil {
		t.Fatal("expected empty table error")
	}
}

func TestPercentileValueAndGoodSet(t *testing.T) {
	tbl := testTable(t) // values 4,2,8,1 → sorted 1,2,4,8
	// Best 50% quantile with linear interpolation: between 2 and 4 → 3.
	yl := tbl.PercentileValue(0.5)
	if yl != 3 {
		t.Fatalf("PercentileValue(0.5) = %v, want 3", yl)
	}
	good := tbl.GoodSetPercentile(0.5)
	if len(good) != 2 { // values 1 and 2
		t.Fatalf("good set = %v", good)
	}
}

func TestGoodSetTolerance(t *testing.T) {
	tbl := testTable(t) // best = 1
	good := tbl.GoodSetTolerance(1.0)
	if len(good) != 2 { // <= 2.0 : rows with 1 and 2
		t.Fatalf("tolerance good set = %v", good)
	}
	goodAll := tbl.GoodSetTolerance(7.0)
	if len(goodAll) != 4 {
		t.Fatalf("tolerance 700%% should include all: %v", goodAll)
	}
}

func TestGoodSetPanics(t *testing.T) {
	tbl := testTable(t)
	for name, f := range map[string]func(){
		"percentile zero": func() { tbl.PercentileValue(0) },
		"percentile >1":   func() { tbl.PercentileValue(1.5) },
		"negative gamma":  func() { tbl.GoodSetTolerance(-0.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestStats(t *testing.T) {
	tbl := testTable(t)
	s := tbl.Stats()
	if s.N != 4 || s.Min != 1 || s.Max != 8 {
		t.Fatalf("Stats = %+v", s)
	}
	if math.Abs(s.Mean-3.75) > 1e-12 {
		t.Fatalf("mean = %v", s.Mean)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := testTable(t)
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("test", tbl.Space, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tbl.Len() || back.Metric != tbl.Metric {
		t.Fatalf("round trip changed shape: %d vs %d", back.Len(), tbl.Len())
	}
	for i := 0; i < tbl.Len(); i++ {
		v, ok := back.Lookup(tbl.Config(i))
		if !ok || v != tbl.Value(i) {
			t.Fatalf("round trip lost row %d", i)
		}
	}
}

func TestCSVRoundTripContinuous(t *testing.T) {
	sp := space.New(space.Continuous("x", 0, 10))
	tbl := MustNew("c", "m", sp,
		[]space.Config{{1.25}, {7.5}}, []float64{3.5, 0.125})
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("c", sp, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := back.Lookup(space.Config{7.5}); !ok || v != 0.125 {
		t.Fatalf("continuous round trip failed: %v %v", v, ok)
	}
}

func TestReadCSVErrors(t *testing.T) {
	sp := space.New(space.Discrete("a", "x", "y"))
	cases := map[string]string{
		"bad header name":  "b,m\nx,1\n",
		"bad column count": "a\nx\n",
		"unknown level":    "a,m\nzzz,1\n",
		"bad float":        "a,m\nx,notanumber\n",
	}
	for name, csvText := range cases {
		if _, err := ReadCSV("d", sp, strings.NewReader(csvText)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestIndexOf(t *testing.T) {
	tbl := testTable(t)
	if tbl.IndexOf(space.Config{0, 1}) != 1 {
		t.Fatal("IndexOf wrong")
	}
	if tbl.IndexOf(space.Config{0}) != -1 {
		t.Fatal("IndexOf should return -1 for unknown")
	}
}

// indexTables returns tables that take each index path core.NewPool
// has for an explicit set: a discrete table within 4x of its grid
// (dense grid index), a discrete table sparser than that (identity
// hash), and a table with a continuous parameter (identity hash),
// which holds both +0 and -0. Rows are in shuffled order.
func indexTables(t *testing.T) map[string]*Table {
	t.Helper()
	r := stats.NewRNG(11)
	discrete := func(sp *space.Space, n int) ([]space.Config, []float64) {
		var configs []space.Config
		var values []float64
		for _, g := range r.Perm(sp.GridSize())[:n] {
			configs = append(configs, sp.FromGridIndex(g))
			values = append(values, float64(g))
		}
		return configs, values
	}
	dense := space.New(space.DiscreteInts("a", 1, 2, 4, 8), space.Discrete("b", "x", "y", "z"), space.DiscreteInts("c", 0, 1, 2, 3, 4))
	sparse := space.New(space.DiscreteInts("a", 0, 1, 2, 3, 4, 5, 6, 7), space.DiscreteInts("b", 0, 1, 2, 3, 4, 5, 6, 7), space.DiscreteInts("c", 0, 1, 2, 3, 4, 5, 6, 7))
	mixed := space.New(space.Discrete("a", "x", "y", "z"), space.Continuous("t", 0, 1))
	mixedRows := []space.Config{{0, 0}, {0, math.Copysign(0, -1)}, {1, 1}, {2, 0.5}}
	for i := 0; i < 30; i++ {
		mixedRows = append(mixedRows, space.Config{float64(r.Intn(3)), r.Float64()})
	}
	mixedValues := make([]float64, len(mixedRows))
	for i := range mixedValues {
		mixedValues[i] = float64(i)
	}
	denseRows, denseValues := discrete(dense, 40)    // grid 60
	sparseRows, sparseValues := discrete(sparse, 60) // grid 512
	out := map[string]*Table{}
	for name, tc := range map[string]struct {
		sp      *space.Space
		configs []space.Config
		values  []float64
	}{
		"dense":  {dense, denseRows, denseValues},
		"sparse": {sparse, sparseRows, sparseValues},
		"mixed":  {mixed, mixedRows, mixedValues},
	} {
		tbl, err := New(name, "m", tc.sp, tc.configs, tc.values)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = tbl
	}
	return out
}

// TestTableIndexMatchesKey checks the table's index, core's
// configuration identity, against a Space.Key map: for every row, every
// grid point of a discrete table, off-grid and out-of-bounds values in
// each parameter, and wrong arities. Several goroutines then read the
// same table at once, as parallel harness repetitions do.
func TestTableIndexMatchesKey(t *testing.T) {
	for name, tbl := range indexTables(t) {
		t.Run(name, func(t *testing.T) {
			sp := tbl.Space
			ref := make(map[string]int, tbl.Len())
			for i, c := range tbl.Configs() {
				ref[sp.Key(c)] = i
			}
			check := func(c space.Config) {
				want := -1
				if len(c) == sp.NumParams() {
					if i, ok := ref[sp.Key(c)]; ok {
						want = i
					}
				}
				if got := tbl.IndexOf(c); got != want {
					t.Fatalf("IndexOf(%v) = %d, Space.Key says %d", c, got, want)
				}
				v, ok := tbl.Lookup(c)
				if ok != (want >= 0) || (ok && v != tbl.Value(want)) {
					t.Fatalf("Lookup(%v) = %v,%v, Space.Key says row %d", c, v, ok, want)
				}
			}
			var probes []space.Config
			for i, c := range tbl.Configs() {
				if tbl.IndexOf(c.Clone()) != i {
					t.Fatalf("row %d %v not found", i, c)
				}
				probes = append(probes, c, c[:len(c)-1], append(c.Clone(), 0))
				for d, v := range c {
					for _, w := range []float64{-1, 0.5, v + 0.5, v - 0.5, -v, math.Nextafter(v, 2), 3, 8, 9, 1e300, math.NaN(), math.Inf(1), math.Inf(-1)} {
						p := c.Clone()
						p[d] = w
						probes = append(probes, p)
					}
				}
			}
			if sp.AllDiscrete() {
				for g := 0; g < sp.GridSize(); g++ {
					probes = append(probes, sp.FromGridIndex(g))
				}
			}
			probes = append(probes, nil, space.Config{})
			for _, p := range probes {
				check(p)
			}

			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i, c := range tbl.Configs() {
						if tbl.IndexOf(c) != i {
							t.Errorf("concurrent IndexOf(row %d) = %d", i, tbl.IndexOf(c))
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

func TestValuesIsCopy(t *testing.T) {
	tbl := testTable(t)
	vs := tbl.Values()
	vs[0] = -999
	if tbl.Value(0) == -999 {
		t.Fatal("Values aliases internal storage")
	}
}
