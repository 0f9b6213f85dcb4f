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
	// Export, when non-nil, returns the rows Run renders its tables
	// from, for sdsp-exp -json. It serves memoized cells only, so call
	// it after RunExperiments (see Runner.Exports).
	Export func(r *Runner) (any, error)
}

// exportOf adapts a study's grid function to Experiment.Export.
func exportOf[T any](grid func(*Runner) (T, error)) func(*Runner) (any, error) {
	return func(r *Runner) (any, error) { return grid(r) }
}

// Registry returns all experiments in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"table1", "Functional unit configuration", Table1, nil},
		{"table2", "Hardware configuration", Table2, nil},
		{"fig3", "Fetch policies, Group I (cycles)", cycleFig(kernels.GroupI, fetchColumns,
			"Figure 3: cycles of execution, Livermore loops, by fetch policy (4 threads)"), nil},
		{"fig4", "Fetch policies, Group II (cycles)", cycleFig(kernels.GroupII, fetchColumns,
			"Figure 4: cycles of execution, Group II, by fetch policy (4 threads)"), nil},
		{"fig5", "Number of threads, Group I (cycles)", cycleFig(kernels.GroupI, threadColumns,
			"Figure 5: cycles of execution, Livermore loops, 1-6 threads"), nil},
		{"fig6", "Number of threads, Group II (cycles)", cycleFig(kernels.GroupII, threadColumns,
			"Figure 6: cycles of execution, Group II, 1-6 threads"), nil},
		{"fig7", "Direct vs associative cache, Group I (average cycles)", cacheFig(kernels.GroupI,
			"Figure 7: average cycles, Livermore loops, direct vs associative cache"), nil},
		{"fig8", "Direct vs associative cache, Group II (average cycles)", cacheFig(kernels.GroupII,
			"Figure 8: average cycles, Group II, direct vs associative cache"), nil},
		{"table3", "Cache hit rates, direct vs 2-way associative", Table3, nil},
		{"fig9", "Scheduling unit depth, Group I (cycles)", cycleFig(kernels.GroupI, suColumns(),
			"Figure 9: cycles by scheduling unit depth, Livermore loops"), nil},
		{"fig10", "Scheduling unit depth, Group II (cycles)", cycleFig(kernels.GroupII, suColumns(),
			"Figure 10: cycles by scheduling unit depth, Group II"), nil},
		{"fig11", "Functional unit configurations, Group I (cycles)", cycleFig(kernels.GroupI, fuColumns,
			"Figure 11: cycles by FU configuration, Livermore loops"), nil},
		{"fig12", "Functional unit configurations, Group II (cycles)", cycleFig(kernels.GroupII, fuColumns,
			"Figure 12: cycles by FU configuration, Group II"), nil},
		{"table4", "Usage of extra functional units (% of cycles)", Table4, nil},
		{"fig13", "Result commit from one vs four blocks, Group I (cycles)", commitFig(kernels.GroupI,
			"Figure 13: commit from one vs multiple blocks, Livermore loops"), nil},
		{"fig14", "Result commit from one vs four blocks, Group II (cycles)", commitFig(kernels.GroupII,
			"Figure 14: commit from one vs multiple blocks, Group II"), nil},
		{"summary", "Speedup summary (paper §5.2 prose)", Summary, nil},
		{"ablations", "Extension ablations: bypassing, renaming, fetch waste", Ablations, nil},
		{"improvements", "Paper §6.1: all four proposed improvements, implemented", Improvements, nil},
		{"hwablations", "Extension ablations: predictor, BTB sharing, I-cache, forwarding", HardwareAblations, nil},
		{"compiler", "Toolchain study: MiniC vs hand-written asm; register budget sweep", CompilerStudy, nil},
		{"faultsweep", "Fault sweep: IPC degradation under injected faults, per mechanism", FaultSweep, exportOf(faultCurves)},
		{"coverage", "Microarchitectural event coverage across kernels, threads, and policies", Coverage, nil},
		{"predstudy", "Frontend study: predictor family × fetch policy IPC and accuracy matrix", PredStudy, exportOf(predGrid)},
		{"mixstudy", "Heterogeneous study: multiprogrammed pairings × threads × memory hierarchy", MixStudy, exportOf(mixGrid)},
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

// cycleColumn is one column of a per-kernel cycle figure: its header
// and the configuration its cells run, r.config(threads) with set
// applied.
type cycleColumn struct {
	header  string
	threads int
	set     func(*core.Config) // nil keeps the default
}

// fetchColumns are Fig 3/4's: the three fetch policies at 4 threads,
// plus the single-threaded base case.
var fetchColumns = []cycleColumn{
	{"TrueRR", defaultThreads, fetchPolicy(core.TrueRR)},
	{"MaskedRR", defaultThreads, fetchPolicy(core.MaskedRR)},
	{"CSwitch", defaultThreads, fetchPolicy(core.CondSwitch)},
	{"BaseCase", 1, nil},
}

func fetchPolicy(p core.FetchPolicy) func(*core.Config) {
	return func(c *core.Config) { c.FetchPolicy = p }
}

// threadColumns are Fig 5/6's: 1..6 threads.
var threadColumns = []cycleColumn{
	{"One", 1, nil}, {"Two", 2, nil}, {"Three", 3, nil},
	{"Four", 4, nil}, {"Five", 5, nil}, {"Six", 6, nil},
}

// suDepths is the paper's scheduling unit sweep.
var suDepths = []int{16, 32, 48, 64}

// suColumns are Fig 9/10's: every SU depth at 4 threads, then at 1.
func suColumns() []cycleColumn {
	var cols []cycleColumn
	for _, n := range []int{defaultThreads, 1} {
		for _, depth := range suDepths {
			cols = append(cols, cycleColumn{fmt.Sprintf("%dT SU%d", n, depth), n,
				func(c *core.Config) { c.SUEntries = depth }})
		}
	}
	return cols
}

// fuColumns are Fig 11/12's: default vs enhanced FUs, 4 threads and base.
var fuColumns = []cycleColumn{
	{"4 Threads", defaultThreads, nil},
	{"4 Threads++", defaultThreads, enhancedFUs},
	{"Base", 1, nil},
	{"Base++", 1, enhancedFUs},
}

func enhancedFUs(c *core.Config) { c.FUs = core.EnhancedFUs() }

// cycleFig builds a per-kernel cycle figure: a row per benchmark of the
// group and a column per configuration, its cells requested row by row.
func cycleFig(group func() []*kernels.Benchmark, cols []cycleColumn, title string) func(*Runner) ([]Table, error) {
	return func(r *Runner) ([]Table, error) {
		t := Table{Title: title, Headers: []string{"Benchmark"}}
		for _, c := range cols {
			t.Headers = append(t.Headers, c.header)
		}
		for _, b := range group() {
			row := []string{b.Name}
			for _, c := range cols {
				cfg := r.config(c.threads)
				if c.set != nil {
					c.set(&cfg)
				}
				v, err := cycleCell(r, b, cfg)
				if err != nil {
					return nil, err
				}
				row = append(row, v)
			}
			t.Rows = append(t.Rows, row)
		}
		return []Table{t}, nil
	}
}

// cacheFig builds Fig 7/8: group-average cycles, direct vs associative.
func cacheFig(group func() []*kernels.Benchmark, title string) func(*Runner) ([]Table, error) {
	return func(r *Runner) ([]Table, error) {
		g := group()
		t := Table{Title: title, Headers: []string{"Threads", "Direct", "Associative"}}
		for _, n := range threadSweep {
			row := []string{fmt.Sprint(n)}
			for _, ways := range []int{1, 2} {
				var sum float64
				for _, b := range g {
					cfg := r.config(n)
					cfg.Cache.Ways = ways
					st, err := r.run(b, cfg)
					if err != nil {
						return nil, err
					}
					sum += float64(st.Cycles)
				}
				row = append(row, fmt.Sprintf("%.0f", sum/float64(len(g))))
			}
			t.Rows = append(t.Rows, row)
		}
		return []Table{t}, nil
	}
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
					st, err := r.run(b, cfg)
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
			st, err := r.run(b, cfg)
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
func commitFig(group func() []*kernels.Benchmark, title string) func(*Runner) ([]Table, error) {
	return func(r *Runner) ([]Table, error) {
		t := Table{Title: title, Headers: []string{"Benchmark", "Multiple (4 blocks)", "Lowest only", "SU stalls (multi)", "SU stalls (lowest)"}}
		for _, b := range group() {
			multi, err := r.run(b, r.config(defaultThreads))
			if err != nil {
				return nil, err
			}
			cfg := r.config(defaultThreads)
			cfg.CommitPolicy = core.LowestOnly
			cfg.CommitWindow = 1
			low, err := r.run(b, cfg)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{b.Name, cycles(multi), cycles(low),
				fmt.Sprint(multi.SUStalls), fmt.Sprint(low.SUStalls)})
		}
		return []Table{t}, nil
	}
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
		base, err := r.run(b, r.config(1))
		if err != nil {
			return nil, err
		}
		bestN, bestSpeedup := 1, 0.0
		first := true
		for _, n := range threadSweep[1:] {
			st, err := r.run(b, r.config(n))
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
		basis, err := r.run(b, r.config(defaultThreads))
		if err != nil {
			return nil, err
		}
		cfg := r.config(defaultThreads)
		cfg.Bypassing = false
		noByp, err := r.run(b, cfg)
		if err != nil {
			return nil, err
		}
		byp.Rows = append(byp.Rows, []string{b.Name, cycles(basis), cycles(noByp),
			fmt.Sprintf("%.1f", 100*(float64(noByp.Cycles)/float64(basis.Cycles)-1))})

		cfg = r.config(defaultThreads)
		cfg.Renaming = false
		sb, err := r.run(b, cfg)
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
	st, err := r.run(b, cfg)
	return CellValue(st, err, cycles)
}

func className(cl int) string { return classOf(cl).String() }
