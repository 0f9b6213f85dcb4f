package experiments

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/kernels"
)

// The coverage experiment maps which microarchitectural events
// (internal/cover) each paper kernel exercises, across the thread and
// fetch-policy grid. It answers "what do the paper's own workloads
// actually stress?" — the gaps it lists are exactly the states the
// coverage-guided generator (internal/progen) exists to reach.

// coverageKernels are the four paper kernels the ROBUSTNESS suite
// schedules (see sdsp/fault_test.go): two Livermore loops, one
// blocked-parallel kernel, one branchy sieve.
var coverageKernels = []string{"LL1", "LL5", "Matrix", "Sieve"}

// coveragePolicies spans every fetch policy so the policy-gated events
// (masked skip, cswitch rotate, icount steer, feedback hold, conf
// throttle) are reachable.
var coveragePolicies = []core.FetchPolicy{
	core.TrueRR, core.MaskedRR, core.CondSwitch,
	core.ICount, core.ICountFeedback, core.ConfThrottle,
}

// coverageThreads pairs the single-threaded base case with the paper's
// default; the multi-thread-only events need the latter.
var coverageThreads = []int{1, defaultThreads}

// coverCell runs one kernel × threads × policy cell with coverage
// recording on. The set attached here only asks for recording: each
// simulation records into a fresh set, which travels on the returned
// Stats, so the assemble pass reads the executed cell's coverage.
func (r *Runner) coverCell(b *kernels.Benchmark, n int, pol core.FetchPolicy) (*core.Stats, error) {
	cfg := r.config(n)
	cfg.FetchPolicy = pol
	cfg.Coverage = cover.NewSet()
	return r.run(b, cfg)
}

// mergeCover folds src into *dst with the clone-first pattern: merging
// into a fresh NewSet would wrongly mark every event applicable (Merge
// keeps an event applicable if either input says so, and a fresh set
// says so for all of them).
func mergeCover(dst **cover.Set, src *cover.Set) {
	if src == nil {
		return
	}
	if *dst == nil {
		*dst = src.Clone()
	} else {
		(*dst).Merge(src)
	}
}

// Coverage renders the event × kernel matrix and the per-configuration
// coverage summaries.
func Coverage(r *Runner) ([]Table, error) {
	matrix := Table{
		Title:   "Event coverage matrix: hit counts per kernel (merged over 1/4 threads x 4 fetch policies)",
		Headers: []string{"Group", "Event"},
	}
	matrix.Headers = append(matrix.Headers, coverageKernels...)
	matrix.Headers = append(matrix.Headers, "Status")

	summary := Table{
		Title:   "Coverage by configuration (core events; stress tier reported separately)",
		Headers: []string{"Benchmark", "Threads", "Policy", "Core", "Stress", "Core %"},
	}

	byKernel := map[string]*cover.Set{}
	var merged *cover.Set
	for _, name := range coverageKernels {
		b, err := kernels.Get(name)
		if err != nil {
			return nil, err
		}
		for _, n := range coverageThreads {
			for _, pol := range coveragePolicies {
				st, err := r.coverCell(b, n, pol)
				if err != nil {
					return nil, err
				}
				// Declaration-pass placeholders carry no coverage; the
				// tables built from them are discarded anyway.
				if st.Coverage == nil {
					continue
				}
				s := st.Coverage
				summary.Rows = append(summary.Rows, []string{
					name, fmt.Sprint(n), pol.String(),
					fmt.Sprintf("%d/%d", s.CoreHits(), s.CoreApplicable()),
					fmt.Sprintf("%d/%d", s.Hits()-s.CoreHits(), s.ApplicableCount()-s.CoreApplicable()),
					fmt.Sprintf("%.1f", 100*s.CoreFraction()),
				})
				ks := byKernel[name]
				mergeCover(&ks, s)
				byKernel[name] = ks
				mergeCover(&merged, s)
			}
		}
	}

	for _, e := range cover.Events() {
		in := e.Describe()
		row := []string{in.Group, in.Name}
		for _, name := range coverageKernels {
			s := byKernel[name]
			switch {
			case s == nil:
				row = append(row, "-")
			case !s.Applicable(e):
				row = append(row, "n/a")
			default:
				row = append(row, fmt.Sprint(s.Count(e)))
			}
		}
		status := "-"
		if merged != nil {
			switch {
			case !merged.Applicable(e):
				status = "n/a"
			case merged.Count(e) > 0:
				status = "hit"
			case in.Stress:
				status = "gap (stress)"
			default:
				status = "GAP"
			}
		}
		row = append(row, status)
		matrix.Rows = append(matrix.Rows, row)
	}

	if merged != nil {
		var gaps, stress []string
		for _, e := range merged.Gaps() {
			if e.Describe().Stress {
				stress = append(stress, e.String())
			} else {
				gaps = append(gaps, e.String())
			}
		}
		sort.Strings(gaps)
		sort.Strings(stress)
		matrix.Notes = append(matrix.Notes,
			fmt.Sprintf("merged kernel coverage: %s", merged.Summary()))
		if len(gaps) > 0 {
			matrix.Notes = append(matrix.Notes, fmt.Sprintf("core gaps: %v", gaps))
		}
		if len(stress) > 0 {
			matrix.Notes = append(matrix.Notes, fmt.Sprintf("stress gaps (fuzzer-owned, closed by the progen corpus): %v", stress))
		}
	}
	summary.Notes = append(summary.Notes,
		"stress-tier events need adversarial code shapes the kernels lack; TestCoverageFloor holds the generated corpus to them")

	return []Table{matrix, summary}, nil
}
