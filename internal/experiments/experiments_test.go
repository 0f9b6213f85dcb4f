package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "fig3", "fig4", "fig5", "fig6",
		"fig7", "fig8", "table3", "fig9", "fig10", "fig11", "fig12",
		"table4", "fig13", "fig14", "summary", "ablations",
		"improvements", "hwablations", "compiler", "faultsweep", "coverage",
		"predstudy", "mixstudy"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(reg), len(want))
	}
	for i, name := range want {
		if reg[i].Name != name {
			t.Errorf("registry[%d] = %q, want %q", i, reg[i].Name, name)
		}
	}
	if _, err := Get("FIG3"); err != nil {
		t.Error("Get should be case-insensitive")
	}
	if _, err := Get("nope"); err == nil {
		t.Error("Get accepted an unknown experiment")
	}
}

// Every experiment must run and produce well-formed tables.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range Registry() {
		t.Run(e.Name, func(t *testing.T) {
			tables := tablesOf(t, e.Name)
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tab := range tables {
				if tab.Title == "" || len(tab.Headers) == 0 || len(tab.Rows) == 0 {
					t.Errorf("malformed table %+v", tab.Title)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Headers) {
						t.Errorf("%s: row width %d != header width %d", tab.Title, len(row), len(tab.Headers))
					}
				}
				var buf bytes.Buffer
				if err := tab.Render(&buf); err != nil {
					t.Errorf("render: %v", err)
				}
				if !strings.Contains(buf.String(), tab.Title) {
					t.Error("rendered output missing title")
				}
			}
		})
	}
}

// The figures must cover all benchmarks of their group.
func TestFigureCoverage(t *testing.T) {
	if rows := tablesOf(t, "fig3")[0].Rows; len(rows) != len(kernels.GroupI()) {
		t.Errorf("fig3 covers %d benchmarks, want %d", len(rows), len(kernels.GroupI()))
	}
	if rows := tablesOf(t, "fig4")[0].Rows; len(rows) != len(kernels.GroupII()) {
		t.Errorf("fig4 covers %d benchmarks, want %d", len(rows), len(kernels.GroupII()))
	}
}

// The runner memoizes: the same cell twice must hit the cache (same
// pointer back).
func TestRunnerMemoization(t *testing.T) {
	twoThreads := func(c *core.Config) { c.Threads = 2 }
	c, timings, err := probe(NewRunner(kernels.Small), 1, along([]string{kernels.GroupI()[0].Name}, runKernel),
		configs(twoThreads, twoThreads, func(c *core.Config) {
			// A different config must be a different cell.
			c.Threads, c.Cache.Ways = 2, 1
		}))
	if err != nil {
		t.Fatal(err)
	}
	st1, st2, st3 := c.at(0, 0), c.at(0, 1), c.at(0, 2)
	if st1 != st2 {
		t.Error("identical cells were simulated twice")
	}
	if st3 == st1 || len(timings) != 2 {
		t.Errorf("different configs shared a cache entry (%d cells simulated)", len(timings))
	}
}

// TestCellCounts pins how many cells each experiment lists on a fresh
// runner, at both scales, and how many distinct cells the whole
// registry lists. It simulates nothing, and it is the only check on the
// Paper cells of the studies that have no Paper golden.
func TestCellCounts(t *testing.T) {
	both := map[string]int{"table1": 0, "table2": 0, "fig3": 24, "fig4": 20, "fig5": 36, "fig6": 30,
		"fig7": 72, "fig8": 60, "table3": 132, "fig9": 48, "fig10": 40, "fig11": 24, "fig12": 20,
		"table4": 11, "fig13": 12, "fig14": 10, "summary": 66, "ablations": 33, "improvements": 92,
		"hwablations": 66, "compiler": 28, "coverage": 48}
	byScale := map[string][2]int{"faultsweep": {152, 8096}, "predstudy": {48, 384}, "mixstudy": {36, 99}}
	for i, sc := range []struct {
		name     string
		scale    kernels.Scale
		distinct int
	}{{"small", kernels.Small, 691}, {"paper", kernels.Paper, 8885}} {
		for _, e := range Registry() {
			want, ok := both[e.Name]
			if !ok {
				want, ok = byScale[e.Name][i], byScale[e.Name] != [2]int{}
			}
			cells, err := NewRunner(sc.scale).DeclareCells([]Experiment{e})
			switch {
			case err != nil:
				t.Errorf("%s %s: %v", sc.name, e.Name, err)
			case !ok:
				t.Errorf("%s lists %d cells; pin its count here", e.Name, len(cells))
			case len(cells) != want:
				t.Errorf("%s %s lists %d cells, want %d", sc.name, e.Name, len(cells), want)
			}
		}
		if cells, err := NewRunner(sc.scale).DeclareCells(Registry()); err != nil || len(cells) != sc.distinct {
			t.Errorf("%s registry lists %d distinct cells (%v), want %d", sc.name, len(cells), err, sc.distinct)
		}
	}
}

// TestAblationsFetchFillIgnoresFetchOverride: the fetch-block
// utilization table says TrueRR, so a sweep's -fetch override leaves it
// as the default runner renders it, while the other ablations follow
// the override.
func TestAblationsFetchFillIgnoresFetchOverride(t *testing.T) {
	e, err := Get("ablations")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(kernels.Small)
	r.fetchOverride, r.hasFetch = core.ICount, true
	tables, _, err := r.RunExperiments([]Experiment{e}, 2)
	if err != nil {
		t.Fatal(err)
	}
	def := tablesOf(t, "ablations")
	if !reflect.DeepEqual(tables[0][2], def[2]) {
		t.Errorf("under -fetch icount %q reads\n%v\nwant the default runner's\n%v", def[2].Title, tables[0][2].Rows, def[2].Rows)
	}
	if reflect.DeepEqual(tables[0][0], def[0]) {
		t.Errorf("-fetch icount left %q as it is; the test cannot tell the override was applied", def[0].Title)
	}
}

// Experiments must be deterministic run to run.
func TestExperimentDeterminism(t *testing.T) {
	e, err := Get("fig5")
	if err != nil {
		t.Fatal(err)
	}
	run := func() string {
		tables, _, err := NewRunner(kernels.Small).RunExperiments([]Experiment{e}, 2)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, tab := range tables[0] {
			tab.Render(&buf)
		}
		return buf.String()
	}
	if run() != run() {
		t.Error("fig5 output differs between runs")
	}
}

// Speedup math matches the paper's formula.
func TestSpeedupFormula(t *testing.T) {
	if got := core.Speedup(50, 100); got != 1.0 {
		t.Errorf("halving cycles should be +100%%, got %v", got)
	}
	if got := core.Speedup(100, 50); got != -0.5 {
		t.Errorf("doubling cycles should be -50%%, got %v", got)
	}
}
