package objective

import (
	"math"
	"reflect"
	"testing"

	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/space"
)

// toySpace is a two-objective toy: f1 rewards large x+y, f2 rewards
// small x+y, with a second dimension pair creating interior trade-offs
// — the classic convex front plus some dominated bulk.
func toySpace() *space.Space {
	return space.New(
		space.DiscreteInts("x", 0, 1, 2, 3, 4, 5, 6, 7),
		space.DiscreteInts("y", 0, 1, 2, 3, 4, 5, 6, 7),
		space.Discrete("mode", "a", "b", "c"),
	)
}

// toyVec maps a config to its canonical two-objective vector. mode
// "b" is strictly worse on both objectives, "c" slightly worse on f2:
// the Pareto front lies entirely in mode "a".
func toyVec(c space.Config) []float64 {
	x, y := c[0], c[1]
	f1 := x*x + y // minimize: wants small x
	f2 := (7-x)*(7-x) + (7-y)*0.5
	switch int(c[2]) {
	case 1:
		f1 += 20
		f2 += 20
	case 2:
		f2 += 6
	}
	return []float64{f1, f2}
}

func newToyTuner(t *testing.T, engine string, seed uint64) *core.Tuner {
	t.Helper()
	sp := toySpace()
	set, err := ParseSet([]string{"p95_latency_ms", "cost"})
	if err != nil {
		t.Fatal(err)
	}
	vec := func(c space.Config) []float64 { return toyVec(c) }
	obj := func(c space.Config) float64 { return set.Scalarize(toyVec(c)) }
	tn, err := core.NewTuner(sp, obj, core.Options{
		Engine:          engine,
		Seed:            seed,
		InitialSamples:  12,
		VectorObjective: vec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

// TestMOTPEFrontNondominated is the acceptance check: the front the
// motpe engine reports after a run is verified nondominated within
// the evaluated history.
func TestMOTPEFrontNondominated(t *testing.T) {
	tn := newToyTuner(t, "motpe", 42)
	if _, err := tn.Run(60); err != nil {
		t.Fatalf("Run: %v", err)
	}
	h := tn.History()
	front := HistoryFront(h)
	if len(front) == 0 {
		t.Fatalf("empty Pareto front after 60 evaluations")
	}
	vecs := HistoryVectors(h, nil)
	inFront := make(map[int]bool, len(front))
	for _, i := range front {
		inFront[i] = true
	}
	for _, i := range front {
		for j := range vecs {
			if i != j && Dominates(vecs[j], vecs[i]) {
				t.Fatalf("front member %d (vec %v) is dominated by %d (%v)", i, vecs[i], j, vecs[j])
			}
		}
	}
	for j := range vecs {
		if inFront[j] {
			continue
		}
		dominated := false
		for _, i := range front {
			if Dominates(vecs[i], vecs[j]) {
				dominated = true
				break
			}
		}
		if !dominated {
			t.Fatalf("observation %d (%v) is nondominated but missing from the front", j, vecs[j])
		}
	}
}

// TestMOTPEBeatsRandomOnToy: with the same seed and budget, motpe's
// front should cover more of random search's front than vice versa
// (coverage = fraction of the other front weakly dominated). Strict
// whole-front domination is checked on the bigger service-app run in
// internal/experiments; on this small toy both methods hit exact
// Pareto-optimal points, so coverage is the robust comparison.
// Checked over several seeds; motpe must win the majority.
func TestMOTPEBeatsRandomOnToy(t *testing.T) {
	wins, losses := 0, 0
	seeds := []uint64{1, 2, 3, 4, 5}
	for _, seed := range seeds {
		mo := newToyTuner(t, "motpe", seed)
		if _, err := mo.Run(60); err != nil {
			t.Fatalf("motpe run: %v", err)
		}
		ra := newToyTuner(t, "random", seed)
		if _, err := ra.Run(60); err != nil {
			t.Fatalf("random run: %v", err)
		}
		mf := frontVectors(mo.History())
		rf := frontVectors(ra.History())
		cm, cr := coverage(mf, rf), coverage(rf, mf)
		switch {
		case cm > cr:
			wins++
		case cr > cm:
			losses++
		}
	}
	if wins <= losses || wins*2 <= len(seeds) {
		t.Fatalf("motpe won %d and lost %d of %d seeds", wins, losses, len(seeds))
	}
}

func frontVectors(h *core.History) [][]float64 {
	vecs := HistoryVectors(h, nil)
	var out [][]float64
	for _, i := range FrontIndices(vecs) {
		out = append(out, vecs[i])
	}
	return out
}

// coverage returns the fraction of b's points weakly dominated
// (dominated or equal) by some point of a.
func coverage(a, b [][]float64) float64 {
	if len(b) == 0 {
		return 0
	}
	covered := 0
	for _, q := range b {
		for _, p := range a {
			if Dominates(p, q) || vecEqual(p, q) {
				covered++
				break
			}
		}
	}
	return float64(covered) / float64(len(b))
}

func vecEqual(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMOTPEScalarFallback: a motpe session fed only legacy scalar
// observations degrades to a rank-based single-objective TPE and
// still optimizes.
func TestMOTPEScalarFallback(t *testing.T) {
	sp := toySpace()
	obj := func(c space.Config) float64 { return toyVec(c)[0] }
	tn, err := core.NewTuner(sp, obj, core.Options{
		Engine:         "motpe",
		Seed:           7,
		InitialSamples: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	best, err := tn.Run(50)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The scalar optimum is f1 = 0 (x=0, y=0, mode a); the engine
	// should get close with 50 of 192 configs evaluated.
	if best.Value > 2 {
		t.Fatalf("scalar-fallback best = %v, want <= 2", best.Value)
	}
	// On a scalar history the front is exactly the set of observations
	// tied at the minimum value.
	for _, i := range HistoryFront(tn.History()) {
		if got := tn.History().At(i).Value; got != best.Value {
			t.Fatalf("scalar front member has value %v, best is %v", got, best.Value)
		}
	}
}

// TestMaskedSurrogateMatchesQuantileSplit: when the mask equals the
// α-quantile split, the masked build must reproduce the classic
// surrogate's scores exactly (same density machinery underneath).
func TestMaskedSurrogateMatchesQuantileSplit(t *testing.T) {
	sp := toySpace()
	h := core.NewHistory(sp)
	cfgs := sp.Enumerate()
	for i, c := range cfgs {
		if i%3 == 0 {
			h.MustAdd(c, toyVec(c)[0])
		}
	}
	cfg := core.SurrogateConfig{Quantile: 0.25}
	classic, err := core.BuildSurrogate(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	thr := classic.Threshold()
	mask := make([]bool, h.Len())
	for i, o := range h.Observations() {
		mask[i] = o.Value <= thr
	}
	masked, err := core.BuildMaskedSurrogate(h, mask, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if masked.GoodCount() != classic.GoodCount() || masked.BadCount() != classic.BadCount() {
		t.Fatalf("partition sizes differ: masked %d/%d classic %d/%d",
			masked.GoodCount(), masked.BadCount(), classic.GoodCount(), classic.BadCount())
	}
	for _, c := range cfgs[:50] {
		a, b := masked.Score(c), classic.Score(c)
		if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
			t.Fatalf("Score(%v): masked %v != classic %v", c, a, b)
		}
	}
}

// Frozen motpe selection sequence at k = 4 on a continuous space,
// where motpe has no pool and acquires through core.ProposalAcquirer.
// Recorded while that acquirer was still separate from the sampling
// engine's; continuous draws never tie, so the merge keeps every
// batch.
func TestMOTPEPoolFreeBatchGoldenSequence(t *testing.T) {
	sp := space.New(space.Continuous("x", 0, 1), space.Continuous("y", 0, 1))
	vec := func(c space.Config) []float64 {
		return []float64{c[0]*c[0] + c[1]*c[1], (c[0]-1)*(c[0]-1) + (c[1]-1)*(c[1]-1)}
	}
	tn, err := core.NewTuner(sp, func(c space.Config) float64 {
		v := vec(c)
		return v[0] + v[1]
	}, core.Options{Engine: "motpe", Seed: 2, InitialSamples: 10, VectorObjective: vec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.RunBatched(30, 4); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, o := range tn.History().Observations() {
		keys = append(keys, sp.Key(o.Config))
	}
	want := []string{
		"0.10217911323039464|0.72551728851515596", "0.18396244547340834|0.74785222947068564",
		"0.68614973308891125|0.23598681176496306", "0.64712511411315443|0.21905245755132829",
		"0.6089375968529448|0.74911356340518631", "0.74560819069706019|0.35545104396746752",
		"0.68048736862590842|0.96075981764710294", "0.9978931422371724|0.10492930577575299",
		"0.66860114367346035|0.72487817046008185", "0.39561711639354868|0.39062501738860944",
		"0.66582108349099423|0.22698746231530517", "0.66844467717882305|0.22746548451160245",
		"0.6692892355740595|0.22569666380196818", "0.6702352613060848|0.22785525984204286",
		"0.66883140923428941|0.22741337791565847", "0.66767019659893045|0.22795224426473559",
		"0.66861575954426722|0.22860514979261448", "0.66764592255652044|0.22848852585989965",
		"0.66828445914867052|0.22844837897139816", "0.66824093193093725|0.22891421727888142",
		"0.66782970530366537|0.22800720586926543", "0.66679619666411305|0.2284461860829117",
		"0.66801768780775472|0.22847214353167472", "0.66750966039750481|0.2287282572426598",
		"0.66841285759987135|0.22847041111305935", "0.66852332765111611|0.22845948822775494",
		"0.66733849199457074|0.22823002062499725", "0.66740356601760664|0.2287388461999687",
		"0.66789041113204006|0.22866627390995387", "0.66699895489728434|0.22795897128947562",
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("motpe pool-free k=4 selection sequence drifted\ngot:  %#v\nwant: %#v", keys, want)
	}
}

// TestMOTPEPooledGoldenSequence pins motpe on a finite pool, where it
// acquires through the ranking acquirer: the selection sequences of
// Run (k = 1, argmax) and RunBatched (k = 4, Hamming-diversified top-k)
// on the toy space.
func TestMOTPEPooledGoldenSequence(t *testing.T) {
	for _, tc := range []struct {
		k    int
		want []string
	}{
		{k: 1, want: []string{
			"5|6|0", "0|4|0", "2|6|0", "3|4|0", "5|0|0", "6|0|0", "5|6|1", "5|2|0",
			"5|3|0", "5|7|0", "0|3|0", "5|7|1", "5|5|0", "2|3|0", "4|4|0", "6|7|0",
			"5|5|1", "0|6|0", "5|3|1", "2|1|0", "6|6|0", "4|1|0", "5|4|1", "5|5|2",
		}},
		{k: 4, want: []string{
			"5|6|0", "5|4|1", "0|4|0", "5|1|2", "2|6|0", "5|0|0", "5|6|2", "6|4|0",
			"5|2|0", "0|6|0", "2|0|0", "4|1|0", "2|4|0", "5|3|0", "6|0|0", "2|0|1",
			"4|0|0", "2|1|0", "5|7|0", "5|1|1", "4|3|0", "5|5|0", "5|3|1", "0|1|0",
		}},
	} {
		tn := newToyTuner(t, "motpe", 3)
		var err error
		if tc.k == 1 {
			_, err = tn.Run(36)
		} else {
			_, err = tn.RunBatched(36, tc.k)
		}
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, o := range tn.History().Observations()[tn.InitialSamples():] {
			keys = append(keys, tn.History().Space().Key(o.Config))
		}
		if !reflect.DeepEqual(keys, tc.want) {
			t.Fatalf("motpe pooled k=%d selection sequence drifted\ngot:  %#v\nwant: %#v", tc.k, keys, tc.want)
		}
	}
}

// TestMOTPEImportance checks that Tuner.Importance reaches the motpe
// model's optional Importance method: the per-parameter divergences of
// the Pareto-split surrogate, not the nil answer of a model without one.
func TestMOTPEImportance(t *testing.T) {
	tn := newToyTuner(t, "motpe", 3)
	if _, err := tn.Run(30); err != nil {
		t.Fatal(err)
	}
	got, err := tn.Importance()
	if err != nil {
		t.Fatal(err)
	}
	if want := tn.Model().(*motpeModel).s.Importance(); len(got) != 3 || !reflect.DeepEqual(got, want) {
		t.Fatalf("motpe importance = %v, want the split surrogate's %v", got, want)
	}
}
