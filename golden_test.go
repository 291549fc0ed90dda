package hiperbot_test

// Golden-parity tests for the engine refactor: the selection
// sequences below were captured from the seed tuner (pre-refactor
// HEAD) for fixed seeds on the Kripke and LULESH tables. The
// refactored engine-driven Tuner must reproduce every sequence
// bit-for-bit — ranking (single and batched), proposal, and GEIST all
// go through Model/Acquirer now, and any drift in RNG consumption,
// tie-breaking, or score accumulation order shows up here as a
// mismatched index.

import (
	"reflect"
	"testing"

	"github.com/hpcautotune/hiperbot/internal/apps/kripke"
	"github.com/hpcautotune/hiperbot/internal/apps/lulesh"
	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/dataset"
	"github.com/hpcautotune/hiperbot/internal/geist"
	"github.com/hpcautotune/hiperbot/internal/space"
)

// Sequences captured at commit "hiperbotd: tuning-as-a-service"
// (pre-engine-refactor) with the capture driver below. Indices are
// table rows for ranking/geist and space grid indices for proposal.
var goldenSequences = map[string][]int{
	"kripke-exec-rank-s42-b40":     {135, 610, 1094, 1487, 1594, 1236, 1155, 1364, 1221, 935, 1093, 465, 1281, 513, 1136, 1401, 984, 1357, 1127, 1593, 356, 347, 1420, 98, 354, 328, 344, 84, 375, 125, 657, 12, 488, 757, 645, 139, 221, 215, 174, 704},
	"kripke-exec-rank-s7-b40":      {1129, 449, 1351, 1578, 1593, 1402, 97, 167, 647, 243, 867, 1171, 1502, 1408, 721, 895, 409, 743, 249, 212, 275, 739, 438, 443, 444, 439, 713, 714, 709, 710, 964, 730, 279, 1239, 1231, 704, 1227, 1266, 1223, 548},
	"lulesh-flags-rank-s3-b40":     {3290, 3051, 1039, 2542, 2021, 1901, 999, 3403, 4481, 927, 4389, 3231, 3064, 3584, 3256, 524, 548, 546, 4259, 3361, 4166, 4245, 4661, 2270, 2753, 872, 1805, 2711, 2743, 2038, 4663, 1807, 4167, 1350, 2272, 874, 2734, 4651, 1109, 2755},
	"kripke-exec-batch-s11-b45-k5": {359, 140, 394, 714, 137, 492, 822, 1598, 1013, 367, 101, 542, 1362, 119, 598, 1338, 36, 146, 316, 1580, 725, 1223, 185, 701, 1248, 713, 190, 978, 148, 181, 668, 178, 1179, 139, 959, 681, 662, 151, 613, 665, 685, 84, 1186, 623, 669},
	"kripke-exec-prop-s42-b30":     {2871, 49, 2777, 1938, 3498, 672, 2716, 2133, 1001, 2934, 1462, 995, 2539, 2874, 2705, 729, 3008, 354, 3452, 3394, 1516, 1522, 1636, 1396, 1402, 1390, 1276, 1456, 1504, 1336},
	"lulesh-flags-prop-s9-b30":     {383, 539, 558, 986, 2369, 1353, 3191, 4381, 1600, 5146, 64, 4306, 5362, 4355, 344, 1743, 4625, 3205, 1827, 3621, 4110, 4302, 4206, 4210, 5454, 3054, 5262, 5310, 4218, 750},
	"kripke-exec-geist-s5-b60":     {825, 459, 1253, 906, 1293, 1600, 1188, 1095, 1311, 401, 774, 1160, 1327, 1036, 568, 610, 1401, 959, 580, 805, 1578, 618, 1271, 1302, 1462, 1017, 1022, 1107, 933, 508, 1186, 749, 564, 1576, 1577, 1291, 1016, 139, 950, 707, 84, 215, 541, 1169, 1239, 482, 1179, 619, 225, 1580, 1211, 125, 1456, 1200, 344, 1227, 1284, 1175, 356, 1409},
	// Captured at the introduction of the "gp" engine (incremental
	// GP-EI over the candidate pool, ranking acquisition).
	"kripke-exec-gpeng-s42-b40": {135, 610, 1094, 1487, 1594, 1236, 1155, 1364, 1221, 935, 1093, 465, 1281, 513, 1136, 1401, 984, 1357, 1127, 1593, 1095, 1151, 1087, 303, 1561, 1565, 587, 578, 589, 572, 548, 570, 113, 49, 831, 58, 53, 757, 221, 208},
}

func assertGolden(t *testing.T, name string, got []int) {
	t.Helper()
	want := goldenSequences[name]
	if len(got) != len(want) {
		t.Fatalf("%s: selected %d configurations, golden has %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: selection %d diverged: got index %d, golden %d\n got:  %v\n want: %v",
				name, i, got[i], want[i], got, want)
		}
	}
}

func tableRun(t *testing.T, tbl *dataset.Table, seed uint64, budget, batch int) []int {
	t.Helper()
	cands := make([]space.Config, tbl.Len())
	for i := 0; i < tbl.Len(); i++ {
		cands[i] = tbl.Config(i)
	}
	var seq []int
	tn, err := core.NewTuner(tbl.Space, tbl.Objective(), core.Options{
		Seed:       seed,
		Candidates: cands,
		OnStep: func(iter int, obs core.Observation) {
			seq = append(seq, tbl.IndexOf(obs.Config))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if batch > 1 {
		_, err = tn.RunBatched(budget, batch)
	} else {
		_, err = tn.Run(budget)
	}
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// engineRun drives a named registered engine over a table's candidate
// pool, returning the selected table rows.
func engineRun(t *testing.T, tbl *dataset.Table, engine string, seed uint64, budget int) []int {
	t.Helper()
	cands := make([]space.Config, tbl.Len())
	for i := 0; i < tbl.Len(); i++ {
		cands[i] = tbl.Config(i)
	}
	var seq []int
	tn, err := core.NewTuner(tbl.Space, tbl.Objective(), core.Options{
		Seed:       seed,
		Engine:     engine,
		Candidates: cands,
		OnStep: func(iter int, obs core.Observation) {
			seq = append(seq, tbl.IndexOf(obs.Config))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Run(budget); err != nil {
		t.Fatal(err)
	}
	return seq
}

func proposalRun(t *testing.T, m interface {
	Space() *space.Space
	Evaluate(space.Config) float64
}, seed uint64, budget int) []int {
	t.Helper()
	sp := m.Space()
	var seq []int
	tn, err := core.NewTuner(sp, m.Evaluate, core.Options{
		Seed:   seed,
		Engine: core.Proposal,
		OnStep: func(iter int, obs core.Observation) {
			seq = append(seq, sp.GridIndex(obs.Config))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Run(budget); err != nil {
		t.Fatal(err)
	}
	return seq
}

func TestGoldenRankingSequences(t *testing.T) {
	ke := kripke.Exec().Table()
	lf := lulesh.Flags().Table()
	if ke.Len() != 1612 || lf.Len() != 4764 {
		t.Fatalf("dataset sizes changed (kripke %d, lulesh %d); goldens no longer apply", ke.Len(), lf.Len())
	}
	assertGolden(t, "kripke-exec-rank-s42-b40", tableRun(t, ke, 42, 40, 1))
	assertGolden(t, "kripke-exec-rank-s7-b40", tableRun(t, ke, 7, 40, 1))
	assertGolden(t, "lulesh-flags-rank-s3-b40", tableRun(t, lf, 3, 40, 1))
}

func TestGoldenBatchedSequence(t *testing.T) {
	ke := kripke.Exec().Table()
	assertGolden(t, "kripke-exec-batch-s11-b45-k5", tableRun(t, ke, 11, 45, 5))
}

func TestGoldenProposalSequences(t *testing.T) {
	assertGolden(t, "kripke-exec-prop-s42-b30", proposalRun(t, kripke.Exec(), 42, 30))
	assertGolden(t, "lulesh-flags-prop-s9-b30", proposalRun(t, lulesh.Flags(), 9, 30))
}

// TestGoldenIncrementalMatchesColdSelections proves the
// fit-incremental TPE path selects bit-identically to cold rebuilds:
// a tuner stepped continuously (its TPEModel folds each tell into
// cached statistics) must pick, at every model-guided step, the exact
// candidate a freshly built tuner — resumed from the same history
// prefix, so its first fit is a cold build — picks.
func TestGoldenIncrementalMatchesColdSelections(t *testing.T) {
	tbl := kripke.Exec().Table()
	cands := make([]space.Config, tbl.Len())
	for i := 0; i < tbl.Len(); i++ {
		cands[i] = tbl.Config(i)
	}
	tn, err := core.NewTuner(tbl.Space, tbl.Objective(), core.Options{
		Seed:       42,
		Candidates: cands,
	})
	if err != nil {
		t.Fatal(err)
	}
	for tn.Evaluations() < 40 {
		warm := tn.Evaluations() >= tn.InitialSamples()
		if warm {
			picks, err := tn.SelectBatch(1)
			if err != nil {
				t.Fatal(err)
			}
			incPick := tbl.IndexOf(picks[0])

			cold, err := core.NewTuner(tbl.Space, tbl.Objective(), core.Options{
				Seed:       42,
				Candidates: cands,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := cold.Resume(tn.History()); err != nil {
				t.Fatal(err)
			}
			coldPicks, err := cold.SelectBatch(1)
			if err != nil {
				t.Fatal(err)
			}
			if coldPick := tbl.IndexOf(coldPicks[0]); coldPick != incPick {
				t.Fatalf("step %d: incremental fit picked index %d, cold rebuild picked %d",
					tn.Evaluations(), incPick, coldPick)
			}
		}
		if _, err := tn.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGoldenGPEngineSequence pins the "gp" engine's Tuner-driven
// selections; TestGoldenGPEngineIncrementalMatchesCold additionally
// proves its incremental fits (Cholesky row extension + pool-cache
// rows) select bit-identically to a cold rebuild from the same
// history prefix at every model-guided step.
func TestGoldenGPEngineSequence(t *testing.T) {
	ke := kripke.Exec().Table()
	assertGolden(t, "kripke-exec-gpeng-s42-b40", engineRun(t, ke, "gp", 42, 40))
}

func TestGoldenGPEngineIncrementalMatchesCold(t *testing.T) {
	tbl := kripke.Exec().Table()
	cands := make([]space.Config, tbl.Len())
	for i := 0; i < tbl.Len(); i++ {
		cands[i] = tbl.Config(i)
	}
	newGP := func() *core.Tuner {
		tn, err := core.NewTuner(tbl.Space, tbl.Objective(), core.Options{
			Seed:       42,
			Engine:     "gp",
			Candidates: cands,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tn
	}
	tn := newGP()
	for tn.Evaluations() < 40 {
		if tn.Evaluations() >= tn.InitialSamples() {
			picks, err := tn.SelectBatch(1)
			if err != nil {
				t.Fatal(err)
			}
			incPick := tbl.IndexOf(picks[0])

			cold := newGP()
			if err := cold.Resume(tn.History()); err != nil {
				t.Fatal(err)
			}
			coldPicks, err := cold.SelectBatch(1)
			if err != nil {
				t.Fatal(err)
			}
			if coldPick := tbl.IndexOf(coldPicks[0]); coldPick != incPick {
				t.Fatalf("step %d: incremental fit picked index %d, cold rebuild picked %d",
					tn.Evaluations(), incPick, coldPick)
			}
		}
		if _, err := tn.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGoldenGEISTSequence(t *testing.T) {
	ke := kripke.Exec().Table()
	g := geist.BuildGraph(ke)
	s, err := geist.NewSampler(ke, g, geist.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	seq := make([]int, 0, h.Len())
	for i := 0; i < h.Len(); i++ {
		seq = append(seq, ke.IndexOf(h.At(i).Config))
	}
	assertGolden(t, "kripke-exec-geist-s5-b60", seq)
}

// TestGridPoolMatchesRowPoolGeistGP checks the engines that bind pool
// state at construction: on a full and a constrained grid, geist and
// gp over an enumerated pool, which keeps no rows, select exactly
// what they select from the explicit set Candidates: sp.Enumerate().
// Batches of 5 give geist an exploration pick per batch.
// internal/core's TestGridPoolMatchesRowPool covers ranking and random.
func TestGridPoolMatchesRowPoolGeistGP(t *testing.T) {
	full := space.New(
		space.DiscreteInts("a", 0, 1, 2, 3, 4),
		space.DiscreteInts("b", 0, 1, 2, 3, 4),
		space.DiscreteInts("c", 0, 1, 2, 3),
		space.DiscreteInts("d", 0, 1, 2, 3),
	)
	constrained := full.WithConstraint(func(c space.Config) bool { return int(c[0]+c[1]+c[2]+c[3])%2 == 0 })
	obj := func(c space.Config) float64 {
		return (c[0]-3)*(c[0]-3) + (c[1]-1)*(c[1]-1) + 0.5*(c[2]-2)*(c[2]-2) + 0.25*c[3]
	}
	for name, sp := range map[string]*space.Space{"full": full, "constrained": constrained} {
		for _, engine := range []string{"geist", "gp"} {
			t.Run(name+"/"+engine, func(t *testing.T) {
				run := func(cands []space.Config) []string {
					tn, err := core.NewTuner(sp, obj, core.Options{Seed: 8, Engine: engine, Candidates: cands})
					if err != nil {
						t.Fatal(err)
					}
					if _, err := tn.RunBatched(45, 5); err != nil {
						t.Fatal(err)
					}
					var keys []string
					for _, o := range tn.History().Observations() {
						keys = append(keys, sp.Key(o.Config))
					}
					return keys
				}
				grid, rows := run(nil), run(sp.Enumerate())
				if !reflect.DeepEqual(grid, rows) {
					t.Fatalf("enumerated pool selected\n%v\nexplicit set\n%v", grid, rows)
				}
			})
		}
	}
}
