package gp

// This file holds the incremental fit machinery behind the fast GP
// backend (DESIGN.md §9). Two pieces:
//
//   - trainer: the one shared factorization builder. Appending an
//     observation extends the Cholesky factor by one row (O(n²) via
//     linalg.Chol.Append); a cold fit is just n appends, so the
//     incremental and cold paths are the same code and cannot drift.
//     A numerically singular kernel matrix triggers an adaptive
//     jitter retry (escalating diagonal noise, bounded attempts)
//     instead of failing the fit.
//
//   - poolEI: the pool↔training cross-kernel caches of the "gp"
//     engine (which Select drives). The K* matrix gains one row per new
//     observation (never recomputed for the whole pool), the
//     forward-solved V = L⁻¹K* gains one row per factor extension
//     (forward substitution never revisits earlier rows), and the
//     variance reduction Σ V² is folded into a running total — so a
//     step's batch EI over P candidates costs O(P), not O(P·n²).
//     Every cached element is produced by the same operation sequence
//     as a fresh Predict, keeping selections bit-identical.

import (
	"fmt"
	"math"

	"github.com/hpcautotune/hiperbot/internal/linalg"
	"github.com/hpcautotune/hiperbot/internal/par"
)

// rowSource fills dst[0..i] with kernel row i of the training set:
// dst[j] = k(x_i, x_j) for j < i and dst[i] = k(x_i, x_i). The
// trainer adds the noise (and any adaptive jitter) to the diagonal.
type rowSource func(i int, dst []float64)

const (
	// maxJitterAttempts bounds the adaptive-jitter escalation.
	maxJitterAttempts = 6
	// baseJitterFrac scales the first jitter attempt by the kernel
	// variance; each further attempt multiplies by 100.
	baseJitterFrac = 1e-10
)

// trainer incrementally factorizes the training kernel matrix.
type trainer struct {
	kernel Kernel
	rows   rowSource
	jitter float64 // adopted diagonal jitter (0 until a pivot fails)
	chol   *linalg.Chol
	krow   []float64 // scratch kernel row
}

func newTrainer(kernel Kernel, capHint int, rows rowSource) *trainer {
	if capHint < 4 {
		capHint = 4
	}
	return &trainer{
		kernel: kernel,
		rows:   rows,
		chol:   linalg.NewChol(capHint),
		krow:   make([]float64, capHint),
	}
}

// reset empties the factor and forgets any adopted jitter, keeping
// allocations.
func (tr *trainer) reset() {
	tr.chol.Reset()
	tr.jitter = 0
}

// extend appends factor row i = chol.N() from the row source.
func (tr *trainer) extend() error {
	i := tr.chol.N()
	if cap(tr.krow) < i+1 {
		grown := make([]float64, 2*(i+1))
		tr.krow = grown
	}
	kr := tr.krow[:i+1]
	tr.rows(i, kr)
	kr[i] += tr.kernel.Noise + tr.jitter
	return tr.chol.Append(kr)
}

// grow extends the factor to n rows. A failed pivot (near-singular
// kernel matrix, e.g. duplicated training rows with tiny noise)
// triggers the adaptive jitter retry: escalate the diagonal noise and
// refactorize from scratch, up to maxJitterAttempts times. A jitter
// change invalidates every existing factor row, so callers holding
// factor-derived caches must compare jitter before and after.
func (tr *trainer) grow(n int) error {
	for tr.chol.N() < n {
		if err := tr.extend(); err != nil {
			if err := tr.recover(n, err); err != nil {
				return err
			}
		}
	}
	return nil
}

// recover escalates the jitter and refactorizes until the full
// n-row factor succeeds or the attempts are exhausted.
func (tr *trainer) recover(n int, cause error) error {
	for attempt := 0; attempt < maxJitterAttempts; attempt++ {
		if tr.jitter == 0 {
			tr.jitter = tr.kernel.Variance * baseJitterFrac
		} else {
			tr.jitter *= 100
		}
		tr.chol.Reset()
		if tr.refactor(n) == nil {
			return nil
		}
	}
	return fmt.Errorf("gp: kernel matrix not positive definite after %d jitter attempts: %w",
		maxJitterAttempts, cause)
}

// refactor rebuilds the factor to n rows under the current jitter,
// stopping at the first failed pivot.
func (tr *trainer) refactor(n int) error {
	for tr.chol.N() < n {
		if err := tr.extend(); err != nil {
			return err
		}
	}
	return nil
}

// solveAlpha recomputes the standardized targets z and the weight
// vector α = (K+σ²I)⁻¹z into the provided buffers (both length
// len(ys)) and returns the target mean and std. O(n²) given the
// factor.
func (tr *trainer) solveAlpha(ys, z, alpha []float64) (mean, std float64) {
	mean, std = standardize(ys, z)
	copy(alpha, z)
	tr.chol.SolveInPlace(alpha)
	return mean, std
}

// posterior materializes the fitted GP (fresh buffers — the public
// Fit path; the engine reuses buffers via solveAlpha).
func (tr *trainer) posterior(xs [][]float64, ys []float64) *GP {
	n := len(ys)
	z := make([]float64, n)
	alpha := make([]float64, n)
	mean, std := tr.solveAlpha(ys, z, alpha)
	return &GP{
		kernel: tr.kernel,
		jitter: tr.jitter,
		xs:     xs,
		alpha:  alpha,
		chol:   tr.chol,
		yMean:  mean,
		yStd:   std,
		z:      z,
	}
}

// poolEI caches per-candidate posterior state over a fixed candidate
// pool. Layouts are row-major with one row per training observation
// (P columns), so both caches extend by one contiguous row per tell.
type poolEI struct {
	feat    *linalg.Matrix // P×d candidate features (borrowed, immutable)
	kernel  Kernel
	workers int
	jitter  float64 // trainer jitter the cached V/varz were built under

	n     int       // training rows folded in
	kstar []float64 // n rows × P: kstar[t*P+p] = k(pool_p, x_t)
	v     []float64 // n rows × P: V = L⁻¹ K*
	varz  []float64 // P: Variance+Noise+jitter − Σ_t V[t,p]² (sequential order)
	mu    []float64 // P: fit-time posterior mean (original units)
	sd    []float64 // P: fit-time posterior std (original units)
	ei    []float64 // P: EI of each candidate at the current best
}

func newPoolEI(feat *linalg.Matrix, kernel Kernel, workers int) *poolEI {
	p := feat.Rows
	pe := &poolEI{
		feat:    feat,
		kernel:  kernel,
		workers: workers,
		varz:    make([]float64, p),
		mu:      make([]float64, p),
		sd:      make([]float64, p),
		ei:      make([]float64, p),
	}
	pe.resetVar()
	return pe
}

// reset drops every cached training row (cold refit), keeping
// allocations.
func (pe *poolEI) reset() {
	pe.n = 0
	pe.kstar = pe.kstar[:0]
	pe.v = pe.v[:0]
	pe.jitter = 0
	pe.resetVar()
}

// resetVar reinitializes the running variance totals to the prior
// variance k(x,x)+σ² (+jitter) — the value a fresh Predict starts
// its subtraction from.
func (pe *poolEI) resetVar() {
	base := pe.kernel.Variance + pe.kernel.Noise + pe.jitter
	for p := range pe.varz {
		pe.varz[p] = base
	}
}

// workersFor caps parallelism by the sweep's work size so small
// sweeps stay on the calling goroutine. Chunking only partitions
// disjoint writes, so results are identical at any worker count.
func (pe *poolEI) workersFor(work int) int {
	if work < batchParallelCutoff {
		return 1
	}
	return pe.workers
}

// growRow extends s by one P-element row, amortizing reallocation.
func growRow(s []float64, p int) []float64 {
	if cap(s) >= len(s)+p {
		return s[:len(s)+p]
	}
	ns := make([]float64, len(s)+p, 2*(len(s)+p))
	copy(ns, s)
	return ns
}

// appendTraining folds training point t = pe.n (feature row x) into
// the caches. The factor must already cover row t. Cost O(P·(d+t)).
func (pe *poolEI) appendTraining(x []float64, chol *linalg.Chol) {
	p := pe.feat.Rows
	t := pe.n
	pe.kstar = growRow(pe.kstar, p)
	ks := pe.kstar[t*p : (t+1)*p]
	par.Chunks(p, pe.workersFor(p*pe.feat.Cols), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			ks[i] = pe.kernel.eval(pe.feat.Row(i), x)
		}
	})
	pe.appendV(ks, chol)
}

// appendV extends V and the running variance totals with the
// forward-solve row for training point t = pe.n. Per candidate this
// performs exactly the t-th iteration of ForwardSolveInPlace followed
// by the t-th variance subtraction of Predict, in the same order.
func (pe *poolEI) appendV(ks []float64, chol *linalg.Chol) {
	p := pe.feat.Rows
	t := pe.n
	pe.v = growRow(pe.v, p)
	vt := pe.v[t*p : (t+1)*p]
	lrow := chol.Row(t) // length t+1
	par.Chunks(p, pe.workersFor(p*(t+2)), func(_, lo, hi int) {
		copy(vt[lo:hi], ks[lo:hi])
		for k := 0; k < t; k++ {
			vk := pe.v[k*p : (k+1)*p]
			c := lrow[k]
			for i := lo; i < hi; i++ {
				vt[i] -= c * vk[i]
			}
		}
		d := lrow[t]
		for i := lo; i < hi; i++ {
			vt[i] = vt[i] / d
			pe.varz[i] -= vt[i] * vt[i]
		}
	})
	pe.n = t + 1
}

// truncate rewinds the caches to the first n training rows by undoing
// the variance subtractions of the dropped rows in reverse order and
// slicing K*/V back — the fantasy-row retraction of pending-aware
// fits. Adding the squares back is algebraically exact but not
// bit-exact against a never-extended cache (float addition does not
// cancel perfectly); the no-pending path never truncates, so exact
// sequences are unaffected.
func (pe *poolEI) truncate(n int) {
	p := pe.feat.Rows
	for t := pe.n - 1; t >= n; t-- {
		vt := pe.v[t*p : (t+1)*p]
		for i, x := range vt {
			pe.varz[i] += x * x
		}
	}
	pe.kstar = pe.kstar[:n*p]
	pe.v = pe.v[:n*p]
	pe.n = n
}

// rebuildV recomputes V and the variance totals from the cached K*
// under a new factor — the adaptive jitter refactorized L, which
// invalidates every forward-solve row while leaving K* (a pure kernel
// product) untouched.
func (pe *poolEI) rebuildV(chol *linalg.Chol, jitter float64) {
	p := pe.feat.Rows
	n := pe.n
	pe.jitter = jitter
	pe.n = 0
	pe.v = pe.v[:0]
	pe.resetVar()
	for t := 0; t < n; t++ {
		pe.appendV(pe.kstar[t*p:(t+1)*p], chol)
	}
}

// refreshMoments recomputes the fit-time posterior moments from the
// weight vector — O(P·n), the only super-linear per-fit cost left on
// the pool path (α changes wholesale whenever the target
// standardization moves).
func (pe *poolEI) refreshMoments(alpha []float64, yMean, yStd float64) {
	p := pe.feat.Rows
	n := pe.n
	par.Chunks(p, pe.workersFor(p*n), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			pe.mu[i] = 0
		}
		for t := 0; t < n; t++ {
			ks := pe.kstar[t*p : (t+1)*p]
			a := alpha[t]
			for i := lo; i < hi; i++ {
				pe.mu[i] += ks[i] * a
			}
		}
		for i := lo; i < hi; i++ {
			varz := pe.varz[i]
			if varz < 0 {
				varz = 0
			}
			pe.sd[i] = math.Sqrt(varz) * yStd
			pe.mu[i] = yMean + pe.mu[i]*yStd
		}
	})
}

// refreshEI recomputes the per-candidate expected improvement against
// best from the cached moments — the O(P) per-step sweep.
func (pe *poolEI) refreshEI(best float64) []float64 {
	p := pe.feat.Rows
	par.Chunks(p, pe.workersFor(p*16), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			pe.ei[i] = eiFromMoments(pe.mu[i], pe.sd[i], best)
		}
	})
	return pe.ei
}

// foldInto extends the factor and the pool caches with every training
// row not yet folded, rebuilding the caches whenever an adaptive
// jitter bump refactorized the factor underneath them.
func foldInto(tr *trainer, pe *poolEI, xs [][]float64) error {
	for pe.n < len(xs) {
		if err := tr.grow(pe.n + 1); err != nil {
			return err
		}
		if tr.jitter != pe.jitter {
			pe.rebuildV(tr.chol, tr.jitter)
		}
		pe.appendTraining(xs[pe.n], tr.chol)
	}
	return nil
}
