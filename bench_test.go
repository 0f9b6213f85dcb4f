// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (§5). Each benchmark regenerates its
// experiment's data series (at the fast Small scale; run
// cmd/sdsp-exp -scale paper for the full-size tables) and reports the
// headline quantity as a custom metric, so `go test -bench=.` both
// exercises and summarizes the reproduction.
package repro_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/kernels"
)

// benchScale is the problem scale every benchmark runs at; error
// messages name it so a failure identifies the exact configuration.
const benchScale = kernels.Small

// scaleName renders a kernels.Scale for diagnostics.
func scaleName(s kernels.Scale) string {
	if s == kernels.Paper {
		return "paper"
	}
	return "small"
}

// runExperiment executes one experiment per iteration, sequentially on
// a fresh runner, and returns the final run's export: the typed rows its
// tables render from (nil for an experiment without one).
func runExperiment(b *testing.B, name string) any {
	b.Helper()
	e, err := experiments.Get(name)
	if err != nil {
		b.Fatalf("experiment %s (scale %s): %v", name, scaleName(benchScale), err)
	}
	exps := []experiments.Experiment{e}
	var rows any
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchScale)
		if _, _, err := r.RunExperiments(exps, 1); err != nil {
			b.Fatalf("experiment %s (scale %s): %v", name, scaleName(benchScale), err)
		}
		x, err := r.Exports(exps)
		if err != nil {
			b.Fatalf("experiment %s (scale %s): %v", name, scaleName(benchScale), err)
		}
		rows = x[name]
	}
	return rows
}

// rowsOf runs an experiment and returns its typed rows.
func rowsOf[T any](b *testing.B, name string) []T {
	b.Helper()
	rows, ok := runExperiment(b, name).([]T)
	if !ok || len(rows) == 0 {
		b.Fatalf("experiment %s (scale %s) exports no %T rows", name, scaleName(benchScale), rows)
	}
	return rows
}

// columnMean is the mean over g's kernels of column col; a quarantined
// cell fails the benchmark.
func columnMean(b *testing.B, g experiments.Grid, col int) float64 {
	b.Helper()
	var sum float64
	for _, row := range g.Rows {
		if row.Readings[col].Quarantined {
			b.Fatalf("%s (scale %s): %s / %s is quarantined", g.Title, scaleName(benchScale), row.Kernel, g.Columns[col])
		}
		sum += row.Readings[col].Value
	}
	return sum / float64(len(g.Rows))
}

// reportColumnMeans attaches per-column mean metrics, one per series the
// paper plots.
func reportColumnMeans(b *testing.B, g experiments.Grid, unit string) {
	for col, header := range g.Columns {
		b.ReportMetric(columnMean(b, g, col), fmt.Sprintf("%s-%s", strings.ReplaceAll(header, " ", ""), unit))
	}
}

func BenchmarkFig3FetchPolicyGroupI(b *testing.B) {
	reportColumnMeans(b, rowsOf[experiments.Grid](b, "fig3")[0], "cycles")
}

func BenchmarkFig4FetchPolicyGroupII(b *testing.B) {
	reportColumnMeans(b, rowsOf[experiments.Grid](b, "fig4")[0], "cycles")
}

func BenchmarkFig5ThreadsGroupI(b *testing.B) {
	reportColumnMeans(b, rowsOf[experiments.Grid](b, "fig5")[0], "cycles")
}

func BenchmarkFig6ThreadsGroupII(b *testing.B) {
	reportColumnMeans(b, rowsOf[experiments.Grid](b, "fig6")[0], "cycles")
}

func BenchmarkFig7CacheGroupI(b *testing.B) {
	// Rows are thread counts; report the 4-thread row (paper default).
	row := rowsOf[experiments.CacheRow](b, "fig7")[3]
	b.ReportMetric(row.Direct, "direct-cycles")
	b.ReportMetric(row.Associative, "assoc-cycles")
}

func BenchmarkFig8CacheGroupII(b *testing.B) {
	row := rowsOf[experiments.CacheRow](b, "fig8")[3]
	b.ReportMetric(row.Direct, "direct-cycles")
	b.ReportMetric(row.Associative, "assoc-cycles")
}

func BenchmarkTable3HitRates(b *testing.B) {
	rows := rowsOf[experiments.CacheRow](b, "table3")
	// 4-thread rows: Group I (index 6) and Group II (index 7).
	b.ReportMetric(rows[6].Direct, "gI-direct-hit%")
	b.ReportMetric(rows[6].Associative, "gI-assoc-hit%")
	b.ReportMetric(rows[7].Direct, "gII-direct-hit%")
	b.ReportMetric(rows[7].Associative, "gII-assoc-hit%")
}

func BenchmarkFig9SUDepthGroupI(b *testing.B) {
	reportColumnMeans(b, rowsOf[experiments.Grid](b, "fig9")[0], "cycles")
}

func BenchmarkFig10SUDepthGroupII(b *testing.B) {
	reportColumnMeans(b, rowsOf[experiments.Grid](b, "fig10")[0], "cycles")
}

func BenchmarkFig11FUConfigGroupI(b *testing.B) {
	reportColumnMeans(b, rowsOf[experiments.Grid](b, "fig11")[0], "cycles")
}

func BenchmarkFig12FUConfigGroupII(b *testing.B) {
	reportColumnMeans(b, rowsOf[experiments.Grid](b, "fig12")[0], "cycles")
}

func BenchmarkTable4ExtraFUUsage(b *testing.B) {
	// Surface the paper's headline: the second load unit's usage.
	for _, row := range rowsOf[experiments.UnitUsage](b, "table4") {
		if row.Unit == "Load #2" {
			b.ReportMetric(row.Percent, "Group"+row.Group+"-load2-%used")
		}
	}
}

func BenchmarkFig13CommitGroupI(b *testing.B) {
	g := rowsOf[experiments.Grid](b, "fig13")[0]
	b.ReportMetric(columnMean(b, g, 0), "multiple-cycles")
	b.ReportMetric(columnMean(b, g, 1), "lowest-cycles")
}

func BenchmarkFig14CommitGroupII(b *testing.B) {
	g := rowsOf[experiments.Grid](b, "fig14")[0]
	b.ReportMetric(columnMean(b, g, 0), "multiple-cycles")
	b.ReportMetric(columnMean(b, g, 1), "lowest-cycles")
}

func BenchmarkSummarySpeedups(b *testing.B) {
	for _, p := range rowsOf[experiments.Peak](b, "summary") {
		b.ReportMetric(100*p.Speedup, p.Kernel+"-peak-%")
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// cycles per wall-clock second on the default 4-thread configuration.
func BenchmarkSimulatorThroughput(b *testing.B) {
	benchThroughput(b, "Matrix", 4)
}

// benchThroughput runs one kernel × thread-count point and reports
// simulated cycles and committed instructions per wall-clock second.
func benchThroughput(b *testing.B, kernel string, threads int) {
	b.Helper()
	bench, err := kernels.Get(kernel)
	if err != nil {
		b.Fatal(err)
	}
	p := kernels.Params{Threads: threads, Scale: benchScale}
	obj, err := bench.Build(p)
	if err != nil {
		b.Fatalf("%s (threads=%d, scale %s): %v", kernel, threads, scaleName(benchScale), err)
	}
	cfg := core.DefaultConfig()
	cfg.Threads = threads
	var simCycles, simInstrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := core.New(obj, cfg)
		if err != nil {
			b.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			b.Fatalf("%s (threads=%d, scale %s): %v", kernel, threads, scaleName(benchScale), err)
		}
		simCycles += st.Cycles
		simInstrs += st.Committed
	}
	b.ReportMetric(float64(simCycles)/b.Elapsed().Seconds(), "simcycles/s")
	b.ReportMetric(float64(simInstrs)/b.Elapsed().Seconds(), "siminstrs/s")
}

// BenchmarkSimThroughput is the per-kernel × thread-count throughput
// family behind make bench: every paper kernel at 1 and 4 threads.
// cmd/sdsp-bench runs the same measurement outside the testing harness
// to write and check BENCH_sim.json.
func BenchmarkSimThroughput(b *testing.B) {
	for _, bench := range kernels.All() {
		for _, threads := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/t%d", bench.Name, threads), func(b *testing.B) {
				benchThroughput(b, bench.Name, threads)
			})
		}
	}
}

func BenchmarkImprovementsSuite(b *testing.B) {
	// Headline metric: ICount vs TrueRR average at 4 threads (Improvement 3).
	g := rowsOf[experiments.Grid](b, "improvements")[2]
	b.ReportMetric(columnMean(b, g, 0), "trueRR-cycles")
	b.ReportMetric(columnMean(b, g, 1), "icount-cycles")
}

func BenchmarkHardwareAblations(b *testing.B) {
	// Forwarding grid is last; report mean restricted-vs-forwarding.
	g := rowsOf[experiments.Grid](b, "hwablations")[2]
	b.ReportMetric(columnMean(b, g, 0), "restricted-cycles")
	b.ReportMetric(columnMean(b, g, 1), "forwarding-cycles")
}

// BenchmarkCompilerStudy times the compiler study, which has no typed
// rows to report from.
func BenchmarkCompilerStudy(b *testing.B) {
	runExperiment(b, "compiler")
}
