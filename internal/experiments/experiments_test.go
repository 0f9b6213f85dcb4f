package experiments

import (
	"bytes"
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
	b := kernels.GroupI()[0]
	var st1, st2, st3 *core.Stats
	timings, err := probe(NewRunner(kernels.Small), 1, func(r *Runner) (err error) {
		cfg := r.config(2)
		if st1, err = r.run(b, cfg); err != nil {
			return err
		}
		if st2, err = r.run(b, cfg); err != nil {
			return err
		}
		// A different config must be a different cell.
		cfg.Cache.Ways = 1
		st3, err = r.run(b, cfg)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Error("identical cells were simulated twice")
	}
	if st3 == st1 || len(timings) != 2 {
		t.Errorf("different configs shared a cache entry (%d cells simulated)", len(timings))
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
