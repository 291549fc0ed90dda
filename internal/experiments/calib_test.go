package experiments

// Temporary calibration probe; skipped under -short.

import (
	"testing"

	"github.com/hpcautotune/hiperbot/internal/apps/kripke"
	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/dataset"
	"github.com/hpcautotune/hiperbot/internal/geist"
	"github.com/hpcautotune/hiperbot/internal/harness"
	"github.com/hpcautotune/hiperbot/internal/space"
)

func TestCalibProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe")
	}
	tbl := kripke.Exec().Table()
	_, _, best := tbl.Best()
	t.Logf("exhaustive best = %.4f, good5%%=%d", best, len(tbl.GoodSetPercentile(0.05)))
	spec := harness.CurveSpec{
		Table:       tbl,
		Checkpoints: []int{32, 64, 96, 128, 160, 192},
		Repetitions: 16,
		BaseSeed:    1,
	}
	type combo struct {
		init     int
		quantile float64
		smooth   float64
	}
	for _, cb := range []combo{
		{20, 0.20, 1.0},
		{10, 0.20, 1.0},
		{10, 0.20, 0.5},
		{10, 0.15, 0.5},
		{20, 0.15, 0.5},
		{10, 0.10, 0.5},
		{10, 0.30, 1.0},
	} {
		cb := cb
		m := harness.Method{
			Name: "HiPerBOt",
			Run: func(tb *dataset.Table, budget int, seed uint64) (*core.History, error) {
				cands := make([]space.Config, tb.Len())
				for i := range cands {
					cands[i] = tb.Config(i)
				}
				tn, err := core.NewTuner(tb.Space, tb.Objective(), core.Options{
					InitialSamples: cb.init,
					Surrogate:      core.SurrogateConfig{Smoothing: cb.smooth, Quantile: cb.quantile},
					Seed:           seed,
					Candidates:     cands,
				})
				if err != nil {
					return nil, err
				}
				if _, err := tn.Run(budget); err != nil {
					return nil, err
				}
				return tn.History(), nil
			},
		}
		c, err := harness.RunCurve(m, spec)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("init=%d q=%.2f sm=%.2f best=%v recall=%v", cb.init, cb.quantile, cb.smooth, fmtF(c.BestMean), fmtF(c.RecallMean))
	}
	g, err := harness.RunCurve(harness.GEIST(geist.Options{}, false), spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("GEIST      best=%v recall=%v", fmtF(g.BestMean), fmtF(g.RecallMean))
	r, err := harness.RunCurve(harness.Random(), spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Random     best=%v recall=%v", fmtF(r.BestMean), fmtF(r.RecallMean))
}

func fmtF(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int(x*1000)) / 1000
	}
	return out
}
