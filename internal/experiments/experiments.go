// Package experiments regenerates every table and figure of the paper's
// evaluation section (§5) on the reproduced simulator. Each experiment
// returns one or more text tables whose rows mirror the series the paper
// plots; EXPERIMENTS.md records the measured values next to the paper's
// qualitative claims.
//
// Experiments are written as straight-line code against a Runner, but a
// sweep executes as a declare/schedule/assemble pipeline (see
// Runner.RunExperiments): the benchmark × configuration cells an
// experiment needs are declared up front, deduplicated across all
// selected experiments, simulated on a bounded worker pool, and only
// then assembled into tables — so the rendered output is byte-identical
// for any worker count.
package experiments

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/kernels"
)

// Experiment produces the tables for one paper figure or table.
type Experiment struct {
	Name  string // e.g. "fig3"
	Title string
	Run   func(r *Runner) ([]Table, error)
}

// ErrScaleUnsupported is returned (wrapped) by an experiment that
// cannot run at the Runner's problem scale — e.g. a future sweep whose
// working set only exists at Paper scale. Benchmark and smoke harnesses
// check for it with errors.Is and skip rather than fail.
var ErrScaleUnsupported = errors.New("experiment unavailable at this scale")

// Registry returns all experiments in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"table1", "Functional unit configuration", Table1},
		{"table2", "Hardware configuration", Table2},
		{"fig3", "Fetch policies, Group I (cycles)", Fig3},
		{"fig4", "Fetch policies, Group II (cycles)", Fig4},
		{"fig5", "Number of threads, Group I (cycles)", Fig5},
		{"fig6", "Number of threads, Group II (cycles)", Fig6},
		{"fig7", "Direct vs associative cache, Group I (average cycles)", Fig7},
		{"fig8", "Direct vs associative cache, Group II (average cycles)", Fig8},
		{"table3", "Cache hit rates, direct vs 2-way associative", Table3},
		{"fig9", "Scheduling unit depth, Group I (cycles)", Fig9},
		{"fig10", "Scheduling unit depth, Group II (cycles)", Fig10},
		{"fig11", "Functional unit configurations, Group I (cycles)", Fig11},
		{"fig12", "Functional unit configurations, Group II (cycles)", Fig12},
		{"table4", "Usage of extra functional units (% of cycles)", Table4},
		{"fig13", "Result commit from one vs four blocks, Group I (cycles)", Fig13},
		{"fig14", "Result commit from one vs four blocks, Group II (cycles)", Fig14},
		{"summary", "Speedup summary (paper §5.2 prose)", Summary},
		{"ablations", "Extension ablations: bypassing, renaming, fetch waste", Ablations},
		{"improvements", "Paper §6.1: all four proposed improvements, implemented", Improvements},
		{"hwablations", "Extension ablations: predictor, BTB sharing, I-cache, forwarding", HardwareAblations},
		{"compiler", "Toolchain study: MiniC vs hand-written asm; register budget sweep", CompilerStudy},
		{"faultsweep", "Fault sweep: IPC degradation under injected faults, per mechanism", FaultSweep},
		{"coverage", "Microarchitectural event coverage across kernels, threads, and policies", Coverage},
		{"predstudy", "Frontend study: predictor family × fetch policy IPC and accuracy matrix", PredStudy},
		{"mixstudy", "Heterogeneous study: multiprogrammed pairings × threads × memory hierarchy", MixStudy},
	}
}

// Get finds an experiment by name.
func Get(name string) (Experiment, error) {
	for _, e := range Registry() {
		if strings.EqualFold(e.Name, name) {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", name)
}

// defaultThreads is the paper's default thread count.
const defaultThreads = 4

// threadSweep is the paper's 1–6 thread range.
var threadSweep = []int{1, 2, 3, 4, 5, 6}

// ---------------------------------------------------------------------

// Table1 prints the functional unit configuration actually simulated.
func Table1(r *Runner) ([]Table, error) {
	def, enh := core.DefaultFUs(), core.EnhancedFUs()
	t := Table{
		Title:   "Table 1: functional unit configuration",
		Headers: []string{"Type of FU", "Default no.", "Enhanced no.", "Latency (cycles)", "Pipelined"},
	}
	for cl := 0; cl < len(def.Count); cl++ {
		t.Rows = append(t.Rows, []string{
			className(cl),
			fmt.Sprint(def.Count[cl]),
			fmt.Sprint(enh.Count[cl]),
			fmt.Sprint(def.Latency[cl]),
			fmt.Sprint(def.Pipelined[cl]),
		})
	}
	t.Notes = append(t.Notes, "Latencies are DESIGN.md substitutions; the OCR of the paper lost the originals.")
	return []Table{t}, nil
}

// Table2 prints the default hardware configuration.
func Table2(r *Runner) ([]Table, error) {
	cfg := core.DefaultConfig()
	t := Table{
		Title:   "Table 2: hardware configuration",
		Headers: []string{"Feature", "Default value", "Others simulated"},
		Rows: [][]string{
			{"Number of threads", fmt.Sprint(cfg.Threads), "1, 2, 3, 5, or 6"},
			{"Fetch bandwidth", "4 instructions/cycle", ""},
			{"Branch prediction", "2-bit hardware predictor, shared BTB", ""},
			{"Result commit", fmt.Sprintf("from bottom %d blocks of RB", cfg.CommitWindow), "lower-most block only"},
			{"Register renaming", "full renaming", "1-bit scoreboarding"},
			{"Bypassing of results", "have bypassing", "no bypassing"},
			{"Data cache", "8K, 2-way set associative, 32B lines, LRU", "direct-mapped 8K"},
			{"Instruction cache", "perfect (100% hits)", ""},
			{"Store buffer depth", fmt.Sprint(cfg.StoreBuffer) + " entries", ""},
			{"Depth of sched. unit", fmt.Sprint(cfg.SUEntries) + " entries", "16, 48, or 64 entries"},
			{"Functional units", "see Table 1", "enhanced configuration"},
			{"Writes to RB+IW/cycle", fmt.Sprint(cfg.WritebackWidth), ""},
			{"Insns issued/cycle", fmt.Sprint(cfg.IssueWidth), ""},
		},
	}
	return []Table{t}, nil
}

// fetchPolicyFig builds Fig 3/4: cycles under the three fetch policies
// plus the single-threaded base case.
func fetchPolicyFig(r *Runner, group []*kernels.Benchmark, title string) ([]Table, error) {
	t := Table{
		Title:   title,
		Headers: []string{"Benchmark", "TrueRR", "MaskedRR", "CSwitch", "BaseCase"},
	}
	for _, b := range group {
		row := []string{b.Name}
		for _, pol := range []core.FetchPolicy{core.TrueRR, core.MaskedRR, core.CondSwitch} {
			cfg := r.config(defaultThreads)
			cfg.FetchPolicy = pol
			v, err := cycleCell(r, b, cfg)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		v, err := cycleCell(r, b, r.config(1))
		if err != nil {
			return nil, err
		}
		row = append(row, v)
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}

func Fig3(r *Runner) ([]Table, error) {
	return fetchPolicyFig(r, kernels.GroupI(), "Figure 3: cycles of execution, Livermore loops, by fetch policy (4 threads)")
}

func Fig4(r *Runner) ([]Table, error) {
	return fetchPolicyFig(r, kernels.GroupII(), "Figure 4: cycles of execution, Group II, by fetch policy (4 threads)")
}

// threadsFig builds Fig 5/6: cycles for 1..6 threads under TrueRR.
func threadsFig(r *Runner, group []*kernels.Benchmark, title string) ([]Table, error) {
	t := Table{Title: title, Headers: []string{"Benchmark", "One", "Two", "Three", "Four", "Five", "Six"}}
	for _, b := range group {
		row := []string{b.Name}
		for _, n := range threadSweep {
			v, err := cycleCell(r, b, r.config(n))
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}

func Fig5(r *Runner) ([]Table, error) {
	return threadsFig(r, kernels.GroupI(), "Figure 5: cycles of execution, Livermore loops, 1-6 threads")
}

func Fig6(r *Runner) ([]Table, error) {
	return threadsFig(r, kernels.GroupII(), "Figure 6: cycles of execution, Group II, 1-6 threads")
}

// cacheFig builds Fig 7/8: group-average cycles, direct vs associative.
func cacheFig(r *Runner, group []*kernels.Benchmark, title string) ([]Table, error) {
	t := Table{Title: title, Headers: []string{"Threads", "Direct", "Associative"}}
	for _, n := range threadSweep {
		row := []string{fmt.Sprint(n)}
		for _, ways := range []int{1, 2} {
			var sum float64
			for _, b := range group {
				cfg := r.config(n)
				cfg.Cache.Ways = ways
				st, err := r.Run(b, cfg)
				if err != nil {
					return nil, err
				}
				sum += float64(st.Cycles)
			}
			row = append(row, fmt.Sprintf("%.0f", sum/float64(len(group))))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}

func Fig7(r *Runner) ([]Table, error) {
	return cacheFig(r, kernels.GroupI(), "Figure 7: average cycles, Livermore loops, direct vs associative cache")
}

func Fig8(r *Runner) ([]Table, error) {
	return cacheFig(r, kernels.GroupII(), "Figure 8: average cycles, Group II, direct vs associative cache")
}

// Table3 reports average hit rates per group/threads/cache type.
func Table3(r *Runner) ([]Table, error) {
	t := Table{
		Title:   "Table 3: average cache hit rates (%)",
		Headers: []string{"Threads", "Benchmarks", "Direct", "Assoc."},
	}
	for _, n := range threadSweep {
		for g, group := range [][]*kernels.Benchmark{kernels.GroupI(), kernels.GroupII()} {
			row := []string{fmt.Sprint(n), fmt.Sprintf("Group %s", []string{"I", "II"}[g])}
			for _, ways := range []int{1, 2} {
				var sum float64
				for _, b := range group {
					cfg := r.config(n)
					cfg.Cache.Ways = ways
					st, err := r.Run(b, cfg)
					if err != nil {
						return nil, err
					}
					sum += st.Cache.HitRate()
				}
				row = append(row, fmt.Sprintf("%.1f", 100*sum/float64(len(group))))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return []Table{t}, nil
}

// suDepths is the paper's scheduling unit sweep.
var suDepths = []int{16, 32, 48, 64}

// suFig builds Fig 9/10: cycles by SU depth for 4 and 1 threads.
func suFig(r *Runner, group []*kernels.Benchmark, title string) ([]Table, error) {
	t := Table{Title: title, Headers: []string{"Benchmark",
		"4T SU16", "4T SU32", "4T SU48", "4T SU64",
		"1T SU16", "1T SU32", "1T SU48", "1T SU64"}}
	for _, b := range group {
		row := []string{b.Name}
		for _, n := range []int{defaultThreads, 1} {
			for _, depth := range suDepths {
				cfg := r.config(n)
				cfg.SUEntries = depth
				v, err := cycleCell(r, b, cfg)
				if err != nil {
					return nil, err
				}
				row = append(row, v)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}

func Fig9(r *Runner) ([]Table, error) {
	return suFig(r, kernels.GroupI(), "Figure 9: cycles by scheduling unit depth, Livermore loops")
}

func Fig10(r *Runner) ([]Table, error) {
	return suFig(r, kernels.GroupII(), "Figure 10: cycles by scheduling unit depth, Group II")
}

// fuFig builds Fig 11/12: default vs enhanced FUs, 4 threads and base.
func fuFig(r *Runner, group []*kernels.Benchmark, title string) ([]Table, error) {
	t := Table{Title: title, Headers: []string{"Benchmark", "4 Threads", "4 Threads++", "Base", "Base++"}}
	for _, b := range group {
		row := []string{b.Name}
		for _, n := range []int{defaultThreads, 1} {
			for _, enhanced := range []bool{false, true} {
				cfg := r.config(n)
				if enhanced {
					cfg.FUs = core.EnhancedFUs()
				}
				v, err := cycleCell(r, b, cfg)
				if err != nil {
					return nil, err
				}
				row = append(row, v)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}

func Fig11(r *Runner) ([]Table, error) {
	return fuFig(r, kernels.GroupI(), "Figure 11: cycles by FU configuration, Livermore loops")
}

func Fig12(r *Runner) ([]Table, error) {
	return fuFig(r, kernels.GroupII(), "Figure 12: cycles by FU configuration, Group II")
}

// Table4 reports the utilization of each extra FU (enhanced config, 4
// threads), averaged across the benchmarks of each group.
func Table4(r *Runner) ([]Table, error) {
	def, enh := core.DefaultFUs(), core.EnhancedFUs()
	t := Table{
		Title:   "Table 4: average usage of extra functional units (% of total cycles)",
		Headers: []string{"Benchmarks", "Extra unit", "% cycles used"},
	}
	type key struct {
		group int
		class int
		unit  int
	}
	usage := map[key][]float64{}
	for g, group := range [][]*kernels.Benchmark{kernels.GroupI(), kernels.GroupII()} {
		for _, b := range group {
			cfg := r.config(defaultThreads)
			cfg.FUs = enh
			st, err := r.Run(b, cfg)
			if err != nil {
				return nil, err
			}
			for cl := 0; cl < len(enh.Count); cl++ {
				for u := def.Count[cl]; u < enh.Count[cl]; u++ {
					k := key{g, cl, u}
					usage[k] = append(usage[k], 100*st.FUUtilization(classOf(cl), u))
				}
			}
		}
	}
	var keys []key
	for k := range usage {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.class != b.class {
			return a.class < b.class
		}
		if a.unit != b.unit {
			return a.unit < b.unit
		}
		return a.group < b.group
	})
	for _, k := range keys {
		var sum float64
		for _, v := range usage[k] {
			sum += v
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("Group %s", []string{"I", "II"}[k.group]),
			fmt.Sprintf("%s #%d", className(k.class), k.unit+1),
			fmt.Sprintf("%.2f", sum/float64(len(usage[k]))),
		})
	}
	return []Table{t}, nil
}

// commitFig builds Fig 13/14: lowest-only vs flexible commit, 4 threads.
func commitFig(r *Runner, group []*kernels.Benchmark, title string) ([]Table, error) {
	t := Table{Title: title, Headers: []string{"Benchmark", "Multiple (4 blocks)", "Lowest only", "SU stalls (multi)", "SU stalls (lowest)"}}
	for _, b := range group {
		multi, err := r.Run(b, r.config(defaultThreads))
		if err != nil {
			return nil, err
		}
		cfg := r.config(defaultThreads)
		cfg.CommitPolicy = core.LowestOnly
		cfg.CommitWindow = 1
		low, err := r.Run(b, cfg)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{b.Name, cycles(multi), cycles(low),
			fmt.Sprint(multi.SUStalls), fmt.Sprint(low.SUStalls)})
	}
	return []Table{t}, nil
}

func Fig13(r *Runner) ([]Table, error) {
	return commitFig(r, kernels.GroupI(), "Figure 13: commit from one vs multiple blocks, Livermore loops")
}

func Fig14(r *Runner) ([]Table, error) {
	return commitFig(r, kernels.GroupII(), "Figure 14: commit from one vs multiple blocks, Group II")
}

// Summary reproduces the prose numbers of §5.2: peak improvement per
// benchmark and group averages.
func Summary(r *Runner) ([]Table, error) {
	t := Table{
		Title:   "Speedup summary (paper §5.2)",
		Headers: []string{"Benchmark", "Base cycles", "Best threads", "Peak improvement %"},
	}
	groupPeaks := map[int][]float64{}
	for _, b := range kernels.All() {
		base, err := r.Run(b, r.config(1))
		if err != nil {
			return nil, err
		}
		bestN, bestSpeedup := 1, 0.0
		first := true
		for _, n := range threadSweep[1:] {
			st, err := r.Run(b, r.config(n))
			if err != nil {
				return nil, err
			}
			s := core.Speedup(st.Cycles, base.Cycles)
			if first || s > bestSpeedup {
				bestN, bestSpeedup = n, s
				first = false
			}
		}
		groupPeaks[b.Group] = append(groupPeaks[b.Group], bestSpeedup)
		t.Rows = append(t.Rows, []string{b.Name, fmt.Sprint(base.Cycles),
			fmt.Sprint(bestN), fmt.Sprintf("%+.1f", 100*bestSpeedup)})
	}
	for g := 1; g <= 2; g++ {
		var sum float64
		for _, v := range groupPeaks[g] {
			sum += v
		}
		t.Notes = append(t.Notes, fmt.Sprintf("Group %s average peak improvement: %+.1f%%",
			[]string{"", "I", "II"}[g], 100*sum/float64(len(groupPeaks[g]))))
	}
	return []Table{t}, nil
}

// Ablations covers the Table 2 alternatives the paper mentions but does
// not plot: bypassing, renaming vs scoreboarding, and the fetch-slot
// waste motivating the paper's alignment improvement (§6.1 #2).
func Ablations(r *Runner) ([]Table, error) {
	byp := Table{Title: "Ablation: result bypassing (4 threads)",
		Headers: []string{"Benchmark", "Bypassing", "No bypassing", "Slowdown %"}}
	ren := Table{Title: "Ablation: full renaming vs 1-bit scoreboarding (4 threads)",
		Headers: []string{"Benchmark", "Renaming", "Scoreboard", "Slowdown %"}}
	waste := Table{Title: "Fetch-block utilization (4 threads, TrueRR)",
		Headers: []string{"Benchmark", "Valid insts per fetched block (of 4)"}}
	for _, b := range kernels.All() {
		basis, err := r.Run(b, r.config(defaultThreads))
		if err != nil {
			return nil, err
		}
		cfg := r.config(defaultThreads)
		cfg.Bypassing = false
		noByp, err := r.Run(b, cfg)
		if err != nil {
			return nil, err
		}
		byp.Rows = append(byp.Rows, []string{b.Name, cycles(basis), cycles(noByp),
			fmt.Sprintf("%.1f", 100*(float64(noByp.Cycles)/float64(basis.Cycles)-1))})

		cfg = r.config(defaultThreads)
		cfg.Renaming = false
		sb, err := r.Run(b, cfg)
		if err != nil {
			return nil, err
		}
		ren.Rows = append(ren.Rows, []string{b.Name, cycles(basis), cycles(sb),
			fmt.Sprintf("%.1f", 100*(float64(sb.Cycles)/float64(basis.Cycles)-1))})

		waste.Rows = append(waste.Rows, []string{b.Name,
			fmt.Sprintf("%.2f", float64(basis.FetchedInsts)/float64(basis.FetchedBlocks))})
	}
	return []Table{byp, ren, waste}, nil
}

func cycles(st *core.Stats) string { return fmt.Sprint(st.Cycles) }

// cycleCell runs one benchmark × config cell and renders its cycle
// count — or the explicit QUARANTINED marker when the cell has been
// condemned by the supervisor. Aggregate builders (group averages)
// intentionally do not use this: an average over a poisoned cell would
// be silently wrong, so those propagate the error and fail the sweep.
func cycleCell(r *Runner, b *kernels.Benchmark, cfg core.Config) (string, error) {
	st, err := r.Run(b, cfg)
	return CellValue(st, err, cycles)
}

func className(cl int) string { return classOf(cl).String() }
