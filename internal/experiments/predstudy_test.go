package experiments

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
)

// TestPredstudyCoversGrid: the small-scale export must contain exactly
// the declared grid — every predictor crossed with every policy, kernel,
// and thread count, no duplicates — and every cell must carry
// internally consistent accounting.
func TestPredstudyCoversGrid(t *testing.T) {
	j1, _ := sweeps(t)
	cells := j1.exports["predstudy"].([]PredCell)
	plan, err := predPlanFor(kernels.Small)
	if err != nil {
		t.Fatal(err)
	}
	want := len(plan.kernels) * len(studyPredictors) * len(plan.policies) * len(plan.threads)
	if len(cells) != want {
		t.Fatalf("exported %d cells, want %d", len(cells), want)
	}
	seen := map[string]bool{}
	for _, c := range cells {
		key := fmt.Sprintf("%s/%s/%s/%d", c.Kernel, c.Predictor, c.Policy, c.Threads)
		if seen[key] {
			t.Errorf("duplicate cell %s", key)
		}
		seen[key] = true
		if c.Cycles == 0 {
			t.Errorf("cell %+v has zero cycles", c)
		}
		for _, rate := range []float64{c.Accuracy, c.Confidence, c.BTBHitRate} {
			if rate < 0 || rate > 1 {
				t.Errorf("cell %+v has out-of-range rates", c)
			}
		}
		if c.Policy == core.TrueRR.String() && c.Throttled != 0 {
			t.Errorf("TrueRR cell %+v reports throttled fetch cycles", c)
		}
	}
}
