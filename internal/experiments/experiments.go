// Package experiments regenerates every table and figure of the paper's
// evaluation section (§5) on the reproduced simulator. Each experiment
// returns one or more text tables whose rows mirror the series the paper
// plots; EXPERIMENTS.md records the measured values next to the paper's
// qualitative claims.
//
// Most experiments build typed rows and render their tables from them;
// a per-kernel table is a grid (grid.go), data rather than code. A
// sweep executes as a declare/schedule/assemble pipeline (see
// Runner.RunExperiments): the cells an experiment needs are declared up
// front, deduplicated across experiments, simulated on a bounded worker
// pool, and only then assembled, so the rendered output is
// byte-identical for any worker count.
package experiments

import (
	"fmt"
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

// exportOf adapts a typed-rows builder to Experiment.Export.
func exportOf[T any](build func(*Runner) (T, error)) func(*Runner) (any, error) {
	return func(r *Runner) (any, error) { return build(r) }
}

// Registry returns all experiments in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"table1", "Functional unit configuration", Table1, nil},
		{"table2", "Hardware configuration", Table2, nil},
		figure("fig3", "Fetch policies, Group I (cycles)",
			"Figure 3: cycles of execution, Livermore loops, by fetch policy (4 threads)", kernels.GroupI, fetchColumns),
		figure("fig4", "Fetch policies, Group II (cycles)",
			"Figure 4: cycles of execution, Group II, by fetch policy (4 threads)", kernels.GroupII, fetchColumns),
		figure("fig5", "Number of threads, Group I (cycles)",
			"Figure 5: cycles of execution, Livermore loops, 1-6 threads", kernels.GroupI, threadColumns),
		figure("fig6", "Number of threads, Group II (cycles)",
			"Figure 6: cycles of execution, Group II, 1-6 threads", kernels.GroupII, threadColumns),
		rowsExperiment("fig7", "Direct vs associative cache, Group I (average cycles)", cacheRows(1, cycleCount.read, 0),
			cacheTable("Figure 7: average cycles, Livermore loops, direct vs associative cache", []string{"Threads", "Direct", "Associative"}, false, "%.0f")),
		rowsExperiment("fig8", "Direct vs associative cache, Group II (average cycles)", cacheRows(1, cycleCount.read, 1),
			cacheTable("Figure 8: average cycles, Group II, direct vs associative cache", []string{"Threads", "Direct", "Associative"}, false, "%.0f")),
		rowsExperiment("table3", "Cache hit rates, direct vs 2-way associative", cacheRows(100, func(st *core.Stats) float64 { return st.Cache.HitRate() }, 0, 1),
			cacheTable("Table 3: average cache hit rates (%)", []string{"Threads", "Benchmarks", "Direct", "Assoc."}, true, "%.1f")),
		figure("fig9", "Scheduling unit depth, Group I (cycles)",
			"Figure 9: cycles by scheduling unit depth, Livermore loops", kernels.GroupI, suColumns()),
		figure("fig10", "Scheduling unit depth, Group II (cycles)",
			"Figure 10: cycles by scheduling unit depth, Group II", kernels.GroupII, suColumns()),
		figure("fig11", "Functional unit configurations, Group I (cycles)",
			"Figure 11: cycles by FU configuration, Livermore loops", kernels.GroupI, fuColumns),
		figure("fig12", "Functional unit configurations, Group II (cycles)",
			"Figure 12: cycles by FU configuration, Group II", kernels.GroupII, fuColumns),
		rowsExperiment("table4", "Usage of extra functional units (% of cycles)", unitUsage, table4),
		figure("fig13", "Result commit from one vs four blocks, Group I (cycles)",
			"Figure 13: commit from one vs multiple blocks, Livermore loops", kernels.GroupI, commitColumns),
		figure("fig14", "Result commit from one vs four blocks, Group II (cycles)",
			"Figure 14: commit from one vs multiple blocks, Group II", kernels.GroupII, commitColumns),
		rowsExperiment("summary", "Speedup summary (paper §5.2 prose)", peaks, summary),
		rowsExperiment("ablations", "Extension ablations: bypassing, renaming, fetch waste", ablationGrids.rows, ablationGrids.tables),
		{"improvements", "Paper §6.1: all four proposed improvements, implemented", Improvements, exportOf(improvementGrids.rows)},
		rowsExperiment("hwablations", "Extension ablations: predictor, BTB sharing, I-cache, forwarding", hardwareGrids.rows, hardwareGrids.tables),
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

// fetchColumns are Fig 3/4's: the three fetch policies at 4 threads,
// plus the single-threaded base case.
var fetchColumns = []column{
	{header: "TrueRR", threads: defaultThreads, set: fetchPolicy(core.TrueRR)},
	{header: "MaskedRR", threads: defaultThreads, set: fetchPolicy(core.MaskedRR)},
	{header: "CSwitch", threads: defaultThreads, set: fetchPolicy(core.CondSwitch)},
	{header: "BaseCase", threads: 1},
}

func fetchPolicy(p core.FetchPolicy) func(*core.Config) {
	return func(c *core.Config) { c.FetchPolicy = p }
}

// threadColumns are Fig 5/6's: 1..6 threads.
var threadColumns = []column{
	{header: "One", threads: 1}, {header: "Two", threads: 2}, {header: "Three", threads: 3},
	{header: "Four", threads: 4}, {header: "Five", threads: 5}, {header: "Six", threads: 6},
}

// suDepths is the paper's scheduling unit sweep.
var suDepths = []int{16, 32, 48, 64}

// suColumns are Fig 9/10's: every SU depth at 4 threads, then at 1.
func suColumns() []column {
	var cols []column
	for _, n := range []int{defaultThreads, 1} {
		for _, depth := range suDepths {
			cols = append(cols, column{header: fmt.Sprintf("%dT SU%d", n, depth), threads: n,
				set: func(c *core.Config) { c.SUEntries = depth }})
		}
	}
	return cols
}

// fuColumns are Fig 11/12's: default vs enhanced FUs, 4 threads and base.
var fuColumns = []column{
	{header: "4 Threads", threads: defaultThreads},
	{header: "4 Threads++", threads: defaultThreads, set: enhancedFUs},
	{header: "Base", threads: 1},
	{header: "Base++", threads: 1, set: enhancedFUs},
}

func enhancedFUs(c *core.Config) { c.FUs = core.EnhancedFUs() }

// commitColumns are Fig 13/14's: flexible vs lowest-only commit at 4
// threads, in cycles and in SU stalls.
var commitColumns = []column{
	{header: "Multiple (4 blocks)", threads: defaultThreads},
	{header: "Lowest only", threads: defaultThreads, set: func(c *core.Config) { c.CommitPolicy, c.CommitWindow = core.LowestOnly, 1 }},
	view("SU stalls (multi)", 0, suStalls),
	view("SU stalls (lowest)", 1, suStalls),
}

// groups are the paper's two benchmark groups.
var groups = []struct {
	name    string
	kernels func() []*kernels.Benchmark
}{{"I", kernels.GroupI}, {"II", kernels.GroupII}}

// CacheRow is a group's average of a per-cell number at one thread
// count: cycles in Figs 7–8, the hit rate (%) in Table 3.
type CacheRow struct {
	Threads     int     `json:"threads"`
	Group       string  `json:"group"`
	Direct      float64 `json:"direct"`
	Associative float64 `json:"associative"`
}

// cacheRows averages scale × read over each group's kernels, direct
// and 2-way associative, by thread count, then group.
func cacheRows(scale float64, read func(*core.Stats) float64, gs ...int) func(*Runner) ([]CacheRow, error) {
	return func(r *Runner) ([]CacheRow, error) {
		var rows []CacheRow
		for _, n := range threadSweep {
			for _, g := range gs {
				ks := groups[g].kernels()
				var avg [2]float64 // direct-mapped, 2-way
				for i := range avg {
					var sum float64
					for _, b := range ks {
						cfg := r.config(n)
						cfg.Cache.Ways = i + 1
						st, err := r.run(b, cfg)
						if err != nil {
							return nil, err
						}
						sum += read(st)
					}
					avg[i] = scale * sum / float64(len(ks))
				}
				rows = append(rows, CacheRow{Threads: n, Group: groups[g].name, Direct: avg[0], Associative: avg[1]})
			}
		}
		return rows, nil
	}
}

// cacheTable renders cache rows: the thread count, the group when
// withGroup, and both averages in format.
func cacheTable(title string, headers []string, withGroup bool, format string) func([]CacheRow) []Table {
	return func(rows []CacheRow) []Table {
		t := Table{Title: title, Headers: headers}
		for _, row := range rows {
			cells := []string{fmt.Sprint(row.Threads)}
			if withGroup {
				cells = append(cells, "Group "+row.Group)
			}
			t.Rows = append(t.Rows, append(cells, fmt.Sprintf(format, row.Direct), fmt.Sprintf(format, row.Associative)))
		}
		return []Table{t}
	}
}

// UnitUsage is one row of Table 4: a group's average % of cycles an
// extra functional unit was busy (enhanced FUs, 4 threads).
type UnitUsage struct {
	Group   string  `json:"group"`
	Unit    string  `json:"unit"` // e.g. "Load #2"
	Percent float64 `json:"percent"`
}

// unitUsage is Table 4's rows, by class, then unit, then group.
func unitUsage(r *Runner) ([]UnitUsage, error) {
	def, enh := core.DefaultFUs(), core.EnhancedFUs()
	var sts [2][]*core.Stats
	for g := range groups {
		for _, b := range groups[g].kernels() {
			cfg := r.config(defaultThreads)
			cfg.FUs = enh
			st, err := r.run(b, cfg)
			if err != nil {
				return nil, err
			}
			sts[g] = append(sts[g], st)
		}
	}
	var rows []UnitUsage
	for cl := 0; cl < len(enh.Count); cl++ {
		for u := def.Count[cl]; u < enh.Count[cl]; u++ {
			for g := range groups {
				var sum float64
				for _, st := range sts[g] {
					sum += 100 * st.FUUtilization(classOf(cl), u)
				}
				rows = append(rows, UnitUsage{Group: groups[g].name,
					Unit: fmt.Sprintf("%s #%d", className(cl), u+1), Percent: sum / float64(len(sts[g]))})
			}
		}
	}
	return rows, nil
}

func table4(rows []UnitUsage) []Table {
	t := Table{
		Title:   "Table 4: average usage of extra functional units (% of total cycles)",
		Headers: []string{"Benchmarks", "Extra unit", "% cycles used"},
	}
	for _, row := range rows {
		t.Rows = append(t.Rows, []string{"Group " + row.Group, row.Unit, fmt.Sprintf("%.2f", row.Percent)})
	}
	return []Table{t}
}

// Peak is one kernel of the §5.2 summary: its single-threaded cycles
// and its best speedup over them (core.Speedup; 0.185 is +18.5%).
type Peak struct {
	Kernel      string  `json:"kernel"`
	Group       string  `json:"group"`
	BaseCycles  uint64  `json:"base_cycles"`
	BestThreads int     `json:"best_threads"`
	Speedup     float64 `json:"speedup"`
}

func peaks(r *Runner) ([]Peak, error) {
	var rows []Peak
	for _, b := range kernels.All() {
		p := Peak{Kernel: b.Name, Group: groups[b.Group-1].name}
		for _, n := range threadSweep {
			st, err := r.run(b, r.config(n))
			if err != nil {
				return nil, err
			}
			if n == 1 {
				p.BaseCycles = st.Cycles
			} else if s := core.Speedup(st.Cycles, p.BaseCycles); p.BestThreads == 0 || s > p.Speedup {
				p.BestThreads, p.Speedup = n, s
			}
		}
		rows = append(rows, p)
	}
	return rows, nil
}

// summary reproduces the prose numbers of §5.2: peak improvement per
// benchmark and group averages.
func summary(rows []Peak) []Table {
	t := Table{
		Title:   "Speedup summary (paper §5.2)",
		Headers: []string{"Benchmark", "Base cycles", "Best threads", "Peak improvement %"},
	}
	sum, n := map[string]float64{}, map[string]int{}
	for _, p := range rows {
		t.Rows = append(t.Rows, []string{p.Kernel, fmt.Sprint(p.BaseCycles),
			fmt.Sprint(p.BestThreads), fmt.Sprintf("%+.1f", 100*p.Speedup)})
		sum[p.Group] += p.Speedup
		n[p.Group]++
	}
	for _, g := range groups {
		t.Notes = append(t.Notes, fmt.Sprintf("Group %s average peak improvement: %+.1f%%", g.name, 100*sum[g.name]/float64(n[g.name])))
	}
	return []Table{t}
}

// ablationGrids cover Table 2 alternatives the paper does not plot, and
// the fetch-slot waste behind its alignment improvement (§6.1 #2).
var ablationGrids = grids{{
	title:   "Ablation: result bypassing (4 threads)",
	kernels: kernels.All,
	cols: []column{
		{header: "Bypassing", threads: defaultThreads},
		{header: "No bypassing", threads: defaultThreads, set: func(c *core.Config) { c.Bypassing = false }},
		view("Slowdown %", 1, slowdownPct),
	},
}, {
	title:   "Ablation: full renaming vs 1-bit scoreboarding (4 threads)",
	kernels: kernels.All,
	cols: []column{
		{header: "Renaming", threads: defaultThreads},
		{header: "Scoreboard", threads: defaultThreads, set: func(c *core.Config) { c.Renaming = false }},
		view("Slowdown %", 1, slowdownPct),
	},
}, {
	title:   "Fetch-block utilization (4 threads, TrueRR)",
	kernels: kernels.All,
	cols:    []column{{header: "Valid insts per fetched block (of 4)", threads: defaultThreads, metric: &fetchFill}},
}}

func cycles(st *core.Stats) string { return fmt.Sprint(st.Cycles) }

func className(cl int) string { return classOf(cl).String() }
