package gp_test

// Golden-parity tests for the fast GP backend: the selection
// sequences below were captured from the pre-rewrite gp.Select (full
// O(n³) refit per tell, per-row forward solves) for fixed seeds on
// the Kripke execution-time table. The cached/incremental rewrite
// must reproduce every sequence bit-for-bit — any drift in the
// Cholesky extension, the K*/V row caches, or the batch-EI reduction
// shows up here as a mismatched index.

import (
	"runtime"
	"testing"

	"github.com/hpcautotune/hiperbot/internal/apps/kripke"
	"github.com/hpcautotune/hiperbot/internal/dataset"
	"github.com/hpcautotune/hiperbot/internal/gp"
)

var gpGoldenSequences = map[string][]int{
	"kripke-exec-gp-s42-b60-r1": {1141, 1285, 133, 1218, 1139, 934, 466, 1150, 516, 1583, 1084, 1142, 992, 1411, 1370, 1230, 1093, 1360, 1475, 604, 1266, 1257, 1211, 461, 453, 1265, 1200, 521, 151, 208, 739, 685, 487, 717, 570, 587, 109, 1611, 725, 197, 93, 163, 534, 12, 799, 731, 1429, 657, 548, 704, 652, 174, 1504, 955, 185, 714, 998, 990, 1494, 1565},
}

func gpRun(t testing.TB, tbl *dataset.Table, seed uint64, budget, workers int) []int {
	t.Helper()
	h, err := gp.Select(tbl, budget, gp.Options{Seed: seed, Parallelism: workers})
	if err != nil {
		t.Fatal(err)
	}
	seq := make([]int, 0, h.Len())
	for i := 0; i < h.Len(); i++ {
		seq = append(seq, tbl.IndexOf(h.At(i).Config))
	}
	return seq
}

func assertGPSeq(t *testing.T, name string, got []int) {
	t.Helper()
	want, ok := gpGoldenSequences[name]
	if !ok {
		t.Fatalf("no golden sequence %q", name)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d selections, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: selection %d = table row %d, want %d\nfull: %v", name, i, got[i], want[i], got)
		}
	}
}

// TestGoldenGPSelect pins the rewritten Select to the pre-rewrite
// selection sequence, which refit the GP after every evaluation.
func TestGoldenGPSelect(t *testing.T) {
	ke := kripke.Exec().Table()
	assertGPSeq(t, "kripke-exec-gp-s42-b60-r1", gpRun(t, ke, 42, 60, 0))
}

// TestGoldenGPSelectWorkerInvariance re-runs a golden sequence at
// several fixed worker counts: chunked sweeps only partition disjoint
// writes, so the selections must not depend on parallelism.
func TestGoldenGPSelectWorkerInvariance(t *testing.T) {
	ke := kripke.Exec().Table()
	for _, workers := range []int{1, 2, 3, runtime.GOMAXPROCS(0)} {
		assertGPSeq(t, "kripke-exec-gp-s42-b60-r1", gpRun(t, ke, 42, 60, workers))
	}
}
