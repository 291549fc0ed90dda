package gp

// White-box property tests for the incremental fit machinery: the
// trainer's row-extended factor must match a one-shot reference
// factorization at every size, the poolEI caches must reproduce
// fresh Predict/ExpectedImprovement calls bitwise, near-singular
// kernel matrices must be recovered by the adaptive jitter, and the
// warm engine paths must not allocate.

import (
	"math"
	"testing"

	"github.com/hpcautotune/hiperbot/internal/apps/kripke"
	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/linalg"
	"github.com/hpcautotune/hiperbot/internal/space"
	"github.com/hpcautotune/hiperbot/internal/stats"
)

// kernelMatrix builds the full noisy covariance matrix the trainer
// factorizes, for the independent one-shot reference path.
func kernelMatrix(kernel Kernel, xs [][]float64, jitter float64) *linalg.Matrix {
	n := len(xs)
	k := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := kernel.eval(xs[i], xs[j])
			if i == j {
				v += kernel.Noise + jitter
			}
			k.Set(i, j, v)
		}
	}
	return k
}

// TestIncrementalFitMatchesCold grows a trainer one observation at a
// time — randomized data, dimensions, and length scales — and checks
// the factor, weight vector, and log marginal likelihood against an
// independent one-shot Cholesky at every intermediate size. The
// agreement is bitwise, stronger than the 1e-9 the design asks for,
// because Chol.Append performs the identical operation sequence.
func TestIncrementalFitMatchesCold(t *testing.T) {
	r := stats.NewRNG(2024)
	for trial := 0; trial < 5; trial++ {
		d := 2 + r.Intn(6)
		kernel := Kernel{LengthScale: 0.5 + r.Float64()*2}.withDefaults()
		var xs [][]float64
		var ys []float64
		tr := newTrainer(kernel, 4, kernelRows(kernel, &xs))
		for n := 1; n <= 24; n++ {
			row := make([]float64, d)
			for j := range row {
				row[j] = r.Float64() * 2
			}
			xs = append(xs, row)
			ys = append(ys, r.Float64()*10-5)
			if err := tr.grow(n); err != nil {
				t.Fatalf("trial %d n=%d: %v", trial, n, err)
			}
			if tr.jitter != 0 {
				t.Fatalf("trial %d n=%d: unexpected jitter %v on a well-conditioned matrix", trial, n, tr.jitter)
			}
			if n < 3 && n%4 != 0 {
				continue
			}
			ref, err := linalg.Cholesky(kernelMatrix(kernel, xs, 0))
			if err != nil {
				t.Fatalf("trial %d n=%d: reference factorization: %v", trial, n, err)
			}
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					if math.Float64bits(tr.chol.At(i, j)) != math.Float64bits(ref.At(i, j)) {
						t.Fatalf("trial %d n=%d: L(%d,%d) = %v incremental vs %v cold",
							trial, n, i, j, tr.chol.At(i, j), ref.At(i, j))
					}
				}
			}
			g := tr.posterior(xs, ys)
			zRef := make([]float64, n)
			standardize(ys, zRef)
			alphaRef := linalg.CholeskySolve(ref, zRef)
			for i := range alphaRef {
				if math.Float64bits(g.alpha[i]) != math.Float64bits(alphaRef[i]) {
					t.Fatalf("trial %d n=%d: alpha[%d] = %v incremental vs %v cold",
						trial, n, i, g.alpha[i], alphaRef[i])
				}
			}
			var fit float64
			for i := range alphaRef {
				fit += zRef[i] * alphaRef[i]
			}
			lmlRef := -0.5*fit - 0.5*linalg.CholeskyLogDet(ref)
			if math.Float64bits(g.LogMarginalLikelihood()) != math.Float64bits(lmlRef) {
				t.Fatalf("trial %d n=%d: LML %v incremental vs %v cold", trial, n, g.LogMarginalLikelihood(), lmlRef)
			}
		}
	}
}

// TestPoolEIMatchesPredict folds training rows into the pool caches
// across several fits and checks every cached moment and EI value
// against a fresh per-row Predict/ExpectedImprovement — bitwise, at
// more than one worker count.
func TestPoolEIMatchesPredict(t *testing.T) {
	r := stats.NewRNG(77)
	const d, pool = 5, 60
	feat := linalg.NewMatrix(pool, d)
	for i := 0; i < pool; i++ {
		for j := 0; j < d; j++ {
			feat.Set(i, j, r.Float64()*2)
		}
	}
	for _, workers := range []int{1, 3} {
		kernel := Kernel{LengthScale: 1.3}.withDefaults()
		var xs [][]float64
		var ys []float64
		tr := newTrainer(kernel, 4, kernelRows(kernel, &xs))
		pe := newPoolEI(feat, kernel, workers)
		// Fit at n = 6, 13, 20: each fold extends the caches by
		// several rows at once (as the first fit after a resume does).
		for _, n := range []int{6, 13, 20} {
			for len(xs) < n {
				row := feat.Row(r.Intn(pool)) // pool rows as training points
				xs = append(xs, row)
				ys = append(ys, r.Float64()*4)
			}
			if err := foldInto(tr, pe, xs); err != nil {
				t.Fatal(err)
			}
			z := make([]float64, n)
			alpha := make([]float64, n)
			mean, std := tr.solveAlpha(ys, z, alpha)
			pe.refreshMoments(alpha, mean, std)
			best := ys[0]
			for _, y := range ys {
				if y < best {
					best = y
				}
			}
			ei := pe.refreshEI(best)

			g := &GP{kernel: kernel, jitter: tr.jitter, xs: xs, alpha: alpha,
				chol: tr.chol, yMean: mean, yStd: std, z: z}
			for p := 0; p < pool; p++ {
				mu, sd := g.Predict(feat.Row(p))
				if math.Float64bits(pe.mu[p]) != math.Float64bits(mu) ||
					math.Float64bits(pe.sd[p]) != math.Float64bits(sd) {
					t.Fatalf("workers=%d n=%d pool %d: cached (%v,%v) vs Predict (%v,%v)",
						workers, n, p, pe.mu[p], pe.sd[p], mu, sd)
				}
				if want := g.ExpectedImprovement(feat.Row(p), best); math.Float64bits(ei[p]) != math.Float64bits(want) {
					t.Fatalf("workers=%d n=%d pool %d: cached EI %v vs %v", workers, n, p, ei[p], want)
				}
			}
		}
	}
}

// TestPredictBatchMatchesPredict pins the batch prediction/EI API to
// the scalar path, bitwise, at several worker counts.
func TestPredictBatchMatchesPredict(t *testing.T) {
	r := stats.NewRNG(31)
	xs := make([][]float64, 40)
	ys := make([]float64, 40)
	for i := range xs {
		xs[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
		ys[i] = r.Float64() * 3
	}
	g, err := Fit(xs, ys, Kernel{})
	if err != nil {
		t.Fatal(err)
	}
	q := linalg.NewMatrix(25, 3)
	for i := 0; i < q.Rows; i++ {
		for j := 0; j < 3; j++ {
			q.Set(i, j, r.Float64()*1.5)
		}
	}
	best := 0.7
	mu := make([]float64, q.Rows)
	sd := make([]float64, q.Rows)
	ei := make([]float64, q.Rows)
	for _, workers := range []int{1, 2, 5} {
		g.PredictBatch(q, mu, sd, workers)
		g.EIBatch(q, best, ei, workers)
		for i := 0; i < q.Rows; i++ {
			wmu, wsd := g.Predict(q.Row(i))
			if math.Float64bits(mu[i]) != math.Float64bits(wmu) || math.Float64bits(sd[i]) != math.Float64bits(wsd) {
				t.Fatalf("workers=%d row %d: batch (%v,%v) vs scalar (%v,%v)", workers, i, mu[i], sd[i], wmu, wsd)
			}
			if want := g.ExpectedImprovement(q.Row(i), best); math.Float64bits(ei[i]) != math.Float64bits(want) {
				t.Fatalf("workers=%d row %d: batch EI %v vs %v", workers, i, ei[i], want)
			}
		}
	}
}

// TestFitJitterRecovery: duplicated training rows with tiny noise
// make the kernel matrix numerically singular (the reference one-shot
// factorization rejects it); Fit must recover by escalating diagonal
// jitter and still produce a usable posterior.
func TestFitJitterRecovery(t *testing.T) {
	base := []float64{0.3, 0.7}
	xs := [][]float64{base, base, base, {0.1, 0.9}, {0.8, 0.2}}
	ys := []float64{1, 1, 1, 2, 3}
	kernel := Kernel{Noise: 1e-18}.withDefaults()

	if _, err := linalg.Cholesky(kernelMatrix(kernel, xs, 0)); err == nil {
		t.Fatal("reference factorization accepted the singular matrix; test is vacuous")
	}
	g, err := Fit(xs, ys, kernel)
	if err != nil {
		t.Fatalf("Fit did not recover: %v", err)
	}
	if g.Jitter() <= 0 {
		t.Fatalf("recovered fit reports jitter %v, want > 0", g.Jitter())
	}
	mu, sd := g.Predict([]float64{0.5, 0.5})
	if math.IsNaN(mu) || math.IsNaN(sd) || sd < 0 {
		t.Fatalf("recovered posterior is unusable: mu=%v sd=%v", mu, sd)
	}
}

// TestTrainerJitterExhaustion: when even the maximum jitter cannot
// rescue the factorization, grow reports the bounded-attempts error.
func TestTrainerJitterExhaustion(t *testing.T) {
	kernel := Kernel{Variance: 1}.withDefaults()
	tr := newTrainer(kernel, 2, func(i int, dst []float64) {
		for j := 0; j <= i; j++ {
			dst[j] = math.NaN() // NaN pivots defeat any jitter
		}
	})
	err := tr.grow(2)
	if err == nil {
		t.Fatal("grow succeeded on a NaN kernel matrix")
	}
}

// warmGPTuner drives a "gp"-engine tuner over the Kripke table until
// its caches are warm.
func warmGPTuner(t testing.TB, evals int) *core.Tuner {
	t.Helper()
	tbl := kripke.Exec().Table()
	cands := make([]space.Config, tbl.Len())
	for i := 0; i < tbl.Len(); i++ {
		cands[i] = tbl.Config(i)
	}
	tn, err := core.NewTuner(tbl.Space, tbl.Objective(), core.Options{
		Seed:       42,
		Engine:     "gp",
		Candidates: cands,
	})
	if err != nil {
		t.Fatal(err)
	}
	for tn.Evaluations() < evals {
		if _, err := tn.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return tn
}

// TestGPSelectBatchNoAllocs is the allocation guard for the warm ask
// path: with the history unchanged since the last fit, a k=1 ranking
// selection through the gp engine copies the cached EI of the whole
// pool into the acquirer's buffer, rescans it, and must not allocate.
func TestGPSelectBatchNoAllocs(t *testing.T) {
	tn := warmGPTuner(t, 40)
	if _, err := tn.SelectBatch(1); err != nil { // size the buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		picks, err := tn.SelectBatch(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(picks) != 1 {
			t.Fatal("no pick")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state SelectBatch(1) allocates %.1f objects per call, want 0", allocs)
	}
}

// TestGPScoreBatchNoAllocs guards the cached batch-EI path itself:
// a warm Fit is a generation no-op and ScoreBatch serves the pooled
// EI cache by copy, so neither may allocate.
func TestGPScoreBatchNoAllocs(t *testing.T) {
	tn := warmGPTuner(t, 30)
	tbl := kripke.Exec().Table()
	cands := make([]space.Config, tbl.Len())
	for i := 0; i < tbl.Len(); i++ {
		cands[i] = tbl.Config(i)
	}
	batch, err := space.NewBatch(tbl.Space, cands)
	if err != nil {
		t.Fatal(err)
	}
	m := tn.Model()
	h := tn.History()
	if err := m.Fit(h); err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, batch.Len())
	allocs := testing.AllocsPerRun(200, func() {
		if err := m.Fit(h); err != nil {
			t.Fatal(err)
		}
		m.ScoreBatch(batch, dst)
	})
	if allocs != 0 {
		t.Fatalf("warm Fit+ScoreBatch allocates %.1f objects per call, want 0", allocs)
	}
}
