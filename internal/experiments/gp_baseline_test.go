package experiments

import (
	"testing"

	"github.com/hpcautotune/hiperbot/internal/apps/kripke"
	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/geist"
	"github.com/hpcautotune/hiperbot/internal/harness"
)

// The paper omits the GP baseline because GEIST was already shown to
// beat it (§V, citing Thiagarajan et al.). With our own GP-EI
// implementation the transitive ordering HiPerBOt ≥ GEIST ≥ GP is
// directly checkable on the Kripke study.
func TestTransitiveOrderingHiPerBOtGeistGP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-repetition selection curves; skipped in -short")
	}
	tbl := kripke.Exec().Table()
	spec := harness.CurveSpec{
		Table:       tbl,
		Checkpoints: []int{96, 192},
		Repetitions: 5,
		BaseSeed:    41,
	}
	curves, err := harness.RunCurves([]harness.Method{
		harness.HiPerBOt(core.Options{}),
		harness.GEIST(geist.Options{}, false),
		harness.GP(),
	}, spec)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for i, c := range curves {
		byName[c.Method] = i
	}
	hb := curves[byName["HiPerBOt"]]
	ge := curves[byName["GEIST"]]
	gpc := curves[byName["GP"]]
	t.Logf("best@192: hiperbot %.3f geist %.3f gp %.3f", hb.BestMean[1], ge.BestMean[1], gpc.BestMean[1])
	t.Logf("recall@192: hiperbot %.3f geist %.3f gp %.3f", hb.RecallMean[1], ge.RecallMean[1], gpc.RecallMean[1])
	if hb.RecallMean[1] <= gpc.RecallMean[1] {
		t.Errorf("HiPerBOt recall %.3f not above GP %.3f", hb.RecallMean[1], gpc.RecallMean[1])
	}
	if hb.BestMean[1] > gpc.BestMean[1]+1e-9 {
		t.Errorf("HiPerBOt best %.4f worse than GP %.4f", hb.BestMean[1], gpc.BestMean[1])
	}
}
