// Package experiments regenerates every table and figure of the paper's
// evaluation section (§5) on the reproduced simulator. Each experiment
// returns one or more text tables whose rows mirror the series the paper
// plots; EXPERIMENTS.md records the measured values next to the paper's
// qualitative claims.
//
// An experiment is data plus one build: the cells it reads, as cubes
// (cube.go), and a function that makes its tables and typed rows from
// the filled cubes; a per-kernel table is a grid (grid.go). A sweep lists
// every cube's cells up front without simulating, deduplicates them
// across experiments, simulates them on a bounded worker pool, and only
// then builds each experiment once, so the rendered output is
// byte-identical for any worker count (see Runner.RunExperiments).
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/kernels"
)

// Experiment produces the tables for one paper figure or table. plan
// returns the cubes of cells it reads and its build.
type Experiment struct {
	Name  string // e.g. "fig3"
	Title string
	plan  func(r *Runner) ([]*cube, build)
}

// build makes an experiment's tables from its filled cubes, and the
// typed rows they render from, which sdsp-exp -json exports (nil when it
// has none).
type build func() ([]Table, any)

// Registry returns all experiments in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"table1", "Functional unit configuration", table1},
		{"table2", "Hardware configuration", table2},
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
		rowsExperiment("ablations", "Extension ablations: bypassing, renaming, fetch waste", ablationGrids.plan, ablationGrids.tables),
		{"improvements", "Paper §6.1: all four proposed improvements, implemented", improvements},
		rowsExperiment("hwablations", "Extension ablations: predictor, BTB sharing, I-cache, forwarding", hardwareGrids.plan, hardwareGrids.tables),
		{"compiler", "Toolchain study: MiniC vs hand-written asm; register budget sweep", compilerStudy},
		{"faultsweep", "Fault sweep: IPC degradation under injected faults, per mechanism", faultSweep},
		{"coverage", "Microarchitectural event coverage across kernels, threads, and policies", coverage},
		{"predstudy", "Frontend study: predictor family × fetch policy IPC and accuracy matrix", predStudy},
		{"mixstudy", "Heterogeneous study: multiprogrammed pairings × threads × memory hierarchy", mixStudy},
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

// table1 prints the functional unit configuration actually simulated.
func table1(*Runner) ([]*cube, build) {
	return nil, func() ([]Table, any) {
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
}

// table2 prints the default hardware configuration.
func table2(*Runner) ([]*cube, build) {
	return nil, func() ([]Table, any) {
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
func cacheRows(scale float64, read func(*core.Stats) float64, gs ...int) func(*Runner) ([]*cube, func() []CacheRow) {
	return func(*Runner) ([]*cube, func() []CacheRow) {
		cubes := make([]*cube, len(gs))
		for i, g := range gs {
			cubes[i] = newCube(along(threadSweep, setThreads),
				along([]int{1, 2}, func(c *cellSpec, ways int) { c.cfg.Cache.Ways = ways }),
				onKernels(groups[g].kernels()))
		}
		return cubes, func() []CacheRow {
			var rows []CacheRow
			for t, n := range threadSweep {
				for i, g := range gs {
					ks := len(cubes[i].axes[2])
					var avg [2]float64 // direct-mapped, 2-way
					for w := range avg {
						var sum float64
						for k := 0; k < ks; k++ {
							sum += read(cubes[i].at(t, w, k))
						}
						avg[w] = scale * sum / float64(ks)
					}
					rows = append(rows, CacheRow{Threads: n, Group: groups[g].name, Direct: avg[0], Associative: avg[1]})
				}
			}
			return rows
		}
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
func unitUsage(*Runner) ([]*cube, func() []UnitUsage) {
	cubes := make([]*cube, len(groups))
	for g := range groups {
		cubes[g] = newCube(onKernels(groups[g].kernels()), configs(enhancedFUs))
	}
	return cubes, func() []UnitUsage {
		def, enh := core.DefaultFUs(), core.EnhancedFUs()
		var rows []UnitUsage
		for cl := 0; cl < len(enh.Count); cl++ {
			for u := def.Count[cl]; u < enh.Count[cl]; u++ {
				for g, c := range cubes {
					ks := len(c.axes[0])
					var sum float64
					for k := 0; k < ks; k++ {
						sum += 100 * c.at(k, 0).FUUtilization(classOf(cl), u)
					}
					rows = append(rows, UnitUsage{Group: groups[g].name,
						Unit: fmt.Sprintf("%s #%d", className(cl), u+1), Percent: sum / float64(ks)})
				}
			}
		}
		return rows
	}
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

func peaks(*Runner) ([]*cube, func() []Peak) {
	all := kernels.All()
	c := newCube(onKernels(all), along(threadSweep, setThreads))
	return []*cube{c}, func() []Peak {
		var rows []Peak
		for k, b := range all {
			p := Peak{Kernel: b.Name, Group: groups[b.Group-1].name}
			for t, n := range threadSweep {
				if st := c.at(k, t); n == 1 {
					p.BaseCycles = st.Cycles
				} else if s := core.Speedup(st.Cycles, p.BaseCycles); p.BestThreads == 0 || s > p.Speedup {
					p.BestThreads, p.Speedup = n, s
				}
			}
			rows = append(rows, p)
		}
		return rows
	}
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
	cols: []column{{header: "Valid insts per fetched block (of 4)", threads: defaultThreads,
		set: fetchPolicy(core.TrueRR), metric: &fetchFill}},
}}

func cycles(st *core.Stats) string { return fmt.Sprint(st.Cycles) }

func className(cl int) string { return classOf(cl).String() }
