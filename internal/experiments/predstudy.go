package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernels"
)

// The predictor study opens the frontend design space the paper fixes:
// every predictor implementation (the paper's 2-bit counter, gshare
// with shared and per-thread history, and a small TAGE) crossed with
// every fetch policy, over the robustness suite's four kernels and the
// thread range. The paper's operating point (2-bit + TrueRR) appears in
// every table as the baseline row, and its cells are the same cached
// cells the paper-figure experiments use — byte-identical by
// construction.

// studyPredictors is the predictor axis, paper default first.
var studyPredictors = []core.PredictorKind{
	core.PredTwoBit, core.PredGshare, core.PredGshareThread, core.PredTAGE,
}

// PredCell is one predictor-study grid cell, predstudy's export.
type PredCell struct {
	Kernel      string  `json:"kernel"`
	Predictor   string  `json:"predictor"`
	Policy      string  `json:"policy"`
	Threads     int     `json:"threads"`
	Cycles      uint64  `json:"cycles"`
	IPC         float64 `json:"ipc"`
	Accuracy    float64 `json:"accuracy"`
	Confidence  float64 `json:"confidence"`
	BTBHitRate  float64 `json:"btb_hit_rate"` // 1 when the BTB saw no lookups
	Mispredicts uint64  `json:"mispredicts"`
	Throttled   uint64  `json:"throttled"`
}

// predPlan scopes the grid to the problem scale: CI crosses two kernels
// with the throttled policies at two thread counts; paper scale runs
// the full predictor × policy × kernel × thread grid.
type predPlan struct {
	kernels  []*kernels.Benchmark
	threads  []int
	policies []core.FetchPolicy
}

func predPlanFor(scale kernels.Scale) (predPlan, error) {
	names := []string{"LL1", "Sieve"} // one Livermore loop, the branchy sieve
	threads := []int{1, defaultThreads}
	policies := []core.FetchPolicy{core.TrueRR, core.ICountFeedback, core.ConfThrottle}
	if scale == kernels.Paper {
		names = []string{"LL1", "LL5", "Matrix", "Sieve"}
		threads = []int{1, 2, 4, 6}
		policies = []core.FetchPolicy{
			core.TrueRR, core.MaskedRR, core.CondSwitch,
			core.ICount, core.ICountFeedback, core.ConfThrottle,
		}
	}
	var ks []*kernels.Benchmark
	for _, name := range names {
		b, err := kernels.Get(name)
		if err != nil {
			return predPlan{}, err
		}
		ks = append(ks, b)
	}
	return predPlan{kernels: ks, threads: threads, policies: policies}, nil
}

// predGrid simulates the full predictor × policy × kernel × threads
// grid.
func predGrid(r *Runner) ([]PredCell, error) {
	plan, err := predPlanFor(r.Scale)
	if err != nil {
		return nil, err
	}
	var cells []PredCell
	for _, b := range plan.kernels {
		for _, pred := range studyPredictors {
			for _, pol := range plan.policies {
				for _, n := range plan.threads {
					cfg := r.config(n)
					cfg.Predictor, cfg.FetchPolicy = pred, pol
					st, err := r.run(b, cfg)
					if err != nil {
						return nil, fmt.Errorf("%s/%v/%v/t%d: %w", b.Name, pred, pol, n, err)
					}
					btbHit := 1.0
					if st.Branch.Lookups > 0 {
						btbHit = float64(st.Branch.BTBHits) / float64(st.Branch.Lookups)
					}
					cells = append(cells, PredCell{
						Kernel: b.Name, Predictor: pred.String(), Policy: pol.String(),
						Threads: n, Cycles: st.Cycles, IPC: st.IPC(),
						Accuracy: st.Branch.Accuracy(), Confidence: st.Branch.Confidence(),
						BTBHitRate: btbHit, Mispredicts: st.Mispredicts, Throttled: st.FetchThrottled,
					})
				}
			}
		}
	}
	return cells, nil
}

// PredStudy renders three slices of the grid.
func PredStudy(r *Runner) ([]Table, error) {
	plan, err := predPlanFor(r.Scale)
	if err != nil {
		return nil, err
	}
	cells, err := predGrid(r)
	if err != nil {
		return nil, err
	}
	cell := func(b *kernels.Benchmark, pred core.PredictorKind, pol core.FetchPolicy, n int) PredCell {
		for _, c := range cells {
			if c.Kernel == b.Name && c.Predictor == pred.String() && c.Policy == pol.String() && c.Threads == n {
				return c
			}
		}
		return PredCell{}
	}

	// Table 1: predictor quality at the paper's operating point.
	quality := Table{
		Title: fmt.Sprintf("Predictor study: accuracy and confidence (%d threads, TrueRR)",
			defaultThreads),
		Headers: []string{"Benchmark", "Predictor", "Accuracy", "Confidence", "BTB hit", "Mispredicts"},
	}
	for _, b := range plan.kernels {
		for _, pred := range studyPredictors {
			c := cell(b, pred, core.TrueRR, defaultThreads)
			quality.Rows = append(quality.Rows, []string{
				b.Name, pred.String(),
				fmt.Sprintf("%.1f%%", 100*c.Accuracy),
				fmt.Sprintf("%.1f%%", 100*c.Confidence),
				fmt.Sprintf("%.1f%%", 100*c.BTBHitRate),
				fmt.Sprint(c.Mispredicts),
			})
		}
	}
	quality.Notes = append(quality.Notes,
		"2bit + TrueRR rows are the paper's operating point, cached cells shared with the paper figures")

	// Table 2: IPC across the fetch-policy axis.
	matrix := Table{
		Title:   fmt.Sprintf("Predictor study: IPC by fetch policy (%d threads)", defaultThreads),
		Headers: []string{"Benchmark", "Predictor"},
	}
	for _, pol := range plan.policies {
		matrix.Headers = append(matrix.Headers, pol.String())
	}
	for _, b := range plan.kernels {
		for _, pred := range studyPredictors {
			row := []string{b.Name, pred.String()}
			for _, pol := range plan.policies {
				row = append(row, fmt.Sprintf("%.3f", cell(b, pred, pol, defaultThreads).IPC))
			}
			matrix.Rows = append(matrix.Rows, row)
		}
	}
	matrix.Notes = append(matrix.Notes,
		"throttled policies trade fetch slots for window quality; Throttled counts are in the -json export")

	// Table 3: thread scaling per predictor under TrueRR.
	scaling := Table{
		Title:   "Predictor study: cycles by thread count (TrueRR)",
		Headers: []string{"Benchmark", "Predictor"},
	}
	for _, n := range plan.threads {
		scaling.Headers = append(scaling.Headers, fmt.Sprintf("T=%d", n))
	}
	for _, b := range plan.kernels {
		for _, pred := range studyPredictors {
			row := []string{b.Name, pred.String()}
			for _, n := range plan.threads {
				row = append(row, fmt.Sprint(cell(b, pred, core.TrueRR, n).Cycles))
			}
			scaling.Rows = append(scaling.Rows, row)
		}
	}

	return []Table{quality, matrix, scaling}, nil
}
