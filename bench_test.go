// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (§5). Each benchmark regenerates its
// experiment's data series (at the fast Small scale; run
// cmd/sdsp-exp -scale paper for the full-size tables) and reports the
// headline quantity as a custom metric, so `go test -bench=.` both
// exercises and summarizes the reproduction.
package repro_test

import (
	"fmt"
	"strconv"
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

// expTable is a rendered table stamped with the experiment and scale it
// came from, so cell-level diagnostics can name their provenance.
type expTable struct {
	experiments.Table
	exp   string
	scale kernels.Scale
}

// runExperiment executes one experiment per iteration, sequentially on
// a fresh runner, and returns the final tables for metric extraction.
func runExperiment(b *testing.B, name string) []expTable {
	b.Helper()
	e, err := experiments.Get(name)
	if err != nil {
		b.Fatalf("experiment %s (scale %s): %v", name, scaleName(benchScale), err)
	}
	var tables []experiments.Table
	for i := 0; i < b.N; i++ {
		all, _, err := experiments.NewRunner(benchScale).RunExperiments([]experiments.Experiment{e}, 1)
		if err != nil {
			b.Fatalf("experiment %s (scale %s): %v", name, scaleName(benchScale), err)
		}
		tables = all[0]
	}
	out := make([]expTable, len(tables))
	for i, t := range tables {
		out[i] = expTable{Table: t, exp: name, scale: benchScale}
	}
	return out
}

// cell parses a numeric cell from a rendered table; a parse failure
// names the experiment, scale, table, and coordinates.
func cell(b *testing.B, t expTable, row, col int) float64 {
	b.Helper()
	if row >= len(t.Rows) || col >= len(t.Rows[row]) {
		b.Fatalf("experiment %s (scale %s): table %q has no cell (%d,%d): %dx%d",
			t.exp, scaleName(t.scale), t.Title, row, col, len(t.Rows), len(t.Headers))
	}
	v, err := strconv.ParseFloat(t.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("experiment %s (scale %s): table %q cell (%d,%d) = %q: %v",
			t.exp, scaleName(t.scale), t.Title, row, col, t.Rows[row][col], err)
	}
	return v
}

// reportColumnMeans attaches per-column mean metrics, one per series the
// paper plots.
func reportColumnMeans(b *testing.B, t expTable, unit string) {
	for col := 1; col < len(t.Headers); col++ {
		var sum float64
		for row := range t.Rows {
			sum += cell(b, t, row, col)
		}
		name := strings.ReplaceAll(t.Headers[col], " ", "")
		b.ReportMetric(sum/float64(len(t.Rows)), fmt.Sprintf("%s-%s", name, unit))
	}
}

func BenchmarkFig3FetchPolicyGroupI(b *testing.B) {
	t := runExperiment(b, "fig3")[0]
	reportColumnMeans(b, t, "cycles")
}

func BenchmarkFig4FetchPolicyGroupII(b *testing.B) {
	t := runExperiment(b, "fig4")[0]
	reportColumnMeans(b, t, "cycles")
}

func BenchmarkFig5ThreadsGroupI(b *testing.B) {
	t := runExperiment(b, "fig5")[0]
	reportColumnMeans(b, t, "cycles")
}

func BenchmarkFig6ThreadsGroupII(b *testing.B) {
	t := runExperiment(b, "fig6")[0]
	reportColumnMeans(b, t, "cycles")
}

func BenchmarkFig7CacheGroupI(b *testing.B) {
	t := runExperiment(b, "fig7")[0]
	// Rows are thread counts; report the 4-thread row (paper default).
	b.ReportMetric(cell(b, t, 3, 1), "direct-cycles")
	b.ReportMetric(cell(b, t, 3, 2), "assoc-cycles")
}

func BenchmarkFig8CacheGroupII(b *testing.B) {
	t := runExperiment(b, "fig8")[0]
	b.ReportMetric(cell(b, t, 3, 1), "direct-cycles")
	b.ReportMetric(cell(b, t, 3, 2), "assoc-cycles")
}

func BenchmarkTable3HitRates(b *testing.B) {
	t := runExperiment(b, "table3")[0]
	// 4-thread rows: Group I (index 6) and Group II (index 7).
	b.ReportMetric(cell(b, t, 6, 2), "gI-direct-hit%")
	b.ReportMetric(cell(b, t, 6, 3), "gI-assoc-hit%")
	b.ReportMetric(cell(b, t, 7, 2), "gII-direct-hit%")
	b.ReportMetric(cell(b, t, 7, 3), "gII-assoc-hit%")
}

func BenchmarkFig9SUDepthGroupI(b *testing.B) {
	t := runExperiment(b, "fig9")[0]
	reportColumnMeans(b, t, "cycles")
}

func BenchmarkFig10SUDepthGroupII(b *testing.B) {
	t := runExperiment(b, "fig10")[0]
	reportColumnMeans(b, t, "cycles")
}

func BenchmarkFig11FUConfigGroupI(b *testing.B) {
	t := runExperiment(b, "fig11")[0]
	reportColumnMeans(b, t, "cycles")
}

func BenchmarkFig12FUConfigGroupII(b *testing.B) {
	t := runExperiment(b, "fig12")[0]
	reportColumnMeans(b, t, "cycles")
}

func BenchmarkTable4ExtraFUUsage(b *testing.B) {
	t := runExperiment(b, "table4")[0]
	// Surface the paper's headline: the second load unit's usage.
	for i, row := range t.Rows {
		if row[1] == "Load #2" {
			group := strings.ReplaceAll(row[0], " ", "")
			b.ReportMetric(cell(b, t, i, 2), group+"-load2-%used")
		}
	}
}

func BenchmarkFig13CommitGroupI(b *testing.B) {
	t := runExperiment(b, "fig13")[0]
	var multi, lowest float64
	for row := range t.Rows {
		multi += cell(b, t, row, 1)
		lowest += cell(b, t, row, 2)
	}
	n := float64(len(t.Rows))
	b.ReportMetric(multi/n, "multiple-cycles")
	b.ReportMetric(lowest/n, "lowest-cycles")
}

func BenchmarkFig14CommitGroupII(b *testing.B) {
	t := runExperiment(b, "fig14")[0]
	var multi, lowest float64
	for row := range t.Rows {
		multi += cell(b, t, row, 1)
		lowest += cell(b, t, row, 2)
	}
	n := float64(len(t.Rows))
	b.ReportMetric(multi/n, "multiple-cycles")
	b.ReportMetric(lowest/n, "lowest-cycles")
}

func BenchmarkSummarySpeedups(b *testing.B) {
	t := runExperiment(b, "summary")[0]
	for i, row := range t.Rows {
		b.ReportMetric(cell(b, t, i, 3), row[0]+"-peak-%")
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
	tables := runExperiment(b, "improvements")
	// Headline metric: ICount vs TrueRR average at 4 threads (tables[2]).
	t := tables[2]
	var trueRR, icount float64
	for row := range t.Rows {
		trueRR += cell(b, t, row, 1)
		icount += cell(b, t, row, 2)
	}
	n := float64(len(t.Rows))
	b.ReportMetric(trueRR/n, "trueRR-cycles")
	b.ReportMetric(icount/n, "icount-cycles")
}

func BenchmarkHardwareAblations(b *testing.B) {
	tables := runExperiment(b, "hwablations")
	// Forwarding table is last; report mean restricted-vs-forwarding.
	t := tables[2]
	var restricted, fwd float64
	for row := range t.Rows {
		restricted += cell(b, t, row, 1)
		fwd += cell(b, t, row, 2)
	}
	n := float64(len(t.Rows))
	b.ReportMetric(restricted/n, "restricted-cycles")
	b.ReportMetric(fwd/n, "forwarding-cycles")
}

func BenchmarkCompilerStudy(b *testing.B) {
	tables := runExperiment(b, "compiler")
	t := tables[0] // hand vs MiniC
	var hand, compiled float64
	for row := range t.Rows {
		hand += cell(b, t, row, 2)
		compiled += cell(b, t, row, 3)
	}
	n := float64(len(t.Rows))
	b.ReportMetric(hand/n, "hand-cycles")
	b.ReportMetric(compiled/n, "minic-cycles")
}
