package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/crash"
	"repro/internal/kernels"
)

// Every curve in the small sweep must be fully populated, and every
// axis must demonstrably inject: a sweep whose injectors never fire
// would render plausible-looking all-zero degradation tables.
func TestFaultSweepCurvesPopulated(t *testing.T) {
	j1, _ := sweeps(t)
	curves := j1.exports["faultsweep"].([]DegradationCurve)
	plan := planFor(kernels.Small)
	want := len(plan.kernels) * len(plan.threads) * len(plan.policies) * len(sweepAxes)
	if len(curves) != want {
		t.Fatalf("exported %d curves, want %d", len(curves), want)
	}
	injectedByAxis := map[string]uint64{}
	for _, c := range curves {
		if c.BaselineCycles == 0 {
			t.Fatalf("curve %s/%s has no baseline", c.Kernel, c.Axis)
		}
		if len(c.Points) != len(plan.intensities) {
			t.Fatalf("curve %s/%s has %d points, want %d", c.Kernel, c.Axis, len(c.Points), len(plan.intensities))
		}
		for _, p := range c.Points {
			if p.Cycles == 0 || p.IPC <= 0 {
				t.Fatalf("curve %s/%s has an empty point: %+v", c.Kernel, c.Axis, p)
			}
			injectedByAxis[c.Axis] += p.Injected
		}
	}
	for _, ax := range sweepAxes {
		if injectedByAxis[ax.name] == 0 {
			t.Errorf("axis %q never injected a single event across the sweep", ax.name)
		}
	}
}

// TestFaultSweepByAxisMatchesCurves: the by-axis table is the 4-thread
// TrueRR slice of the exported curves under any -fetch override, so
// every one of its cells equals its curve's DegradationPct.
func TestFaultSweepByAxisMatchesCurves(t *testing.T) {
	e, err := Get("faultsweep")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(kernels.Small)
	r.fetchOverride, r.hasFetch = core.ICount, true
	tables, _, err := r.RunExperiments([]Experiment{e}, 2)
	if err != nil {
		t.Fatal(err)
	}
	exports, err := r.Exports([]Experiment{e})
	if err != nil {
		t.Fatal(err)
	}
	curves := exports["faultsweep"].([]DegradationCurve)
	for _, row := range tables[0][0].Rows {
		var points []DegradationPoint
		for _, c := range curves {
			if c.Kernel == row[0] && c.Axis == row[1] && c.Threads == defaultThreads && c.Policy == core.TrueRR.String() {
				points = c.Points
			}
		}
		if len(points) != len(row)-2 {
			t.Fatalf("%s/%s: %d table cells, %d curve points", row[0], row[1], len(row)-2, len(points))
		}
		for i, p := range points {
			if want := fmt.Sprintf("%+.1f%%", p.DegradationPct); row[2+i] != want {
				t.Errorf("%s/%s x=%g: table says %s, curve %s", row[0], row[1], p.Intensity, row[2+i], want)
			}
		}
	}
}

// A cell that dies with a machine error under CrashDir must leave a
// replayable bundle behind, and the cell's error must name it: any
// one-slot cell, kernel or MiniC.
func TestRunnerWritesReplayableCrashBundle(t *testing.T) {
	for _, tc := range []struct {
		name string
		slot cellSlot
	}{
		{"kernel", cellSlot{Threads: 2, Kernel: "LL1", Params: kernels.Params{Threads: 2, Scale: kernels.Small}}},
		{"minic", cellSlot{Threads: 2, Regs: 12, MiniC: dotC}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r := NewRunner(kernels.Small)
			r.CrashDir = dir
			_, _, err := probe(r, 1, axis{func(c *cellSpec) {
				c.label, c.slots = tc.name, []cellSlot{tc.slot}
				c.cfg.Threads, c.cfg.MaxCycles = 2, 10 // guaranteed runaway
			}})
			if err == nil {
				t.Fatal("10-cycle MaxCycles did not fail")
			}
			if !strings.Contains(err.Error(), "crash bundle: ") {
				t.Fatalf("error does not name the bundle: %v", err)
			}
			entries, rerr := os.ReadDir(dir)
			if rerr != nil || len(entries) != 1 {
				t.Fatalf("expected exactly one bundle in %s, got %v (%v)", dir, entries, rerr)
			}
			b, rerr := crash.Read(filepath.Join(dir, entries[0].Name()))
			if rerr != nil {
				t.Fatal(rerr)
			}
			got, rerr := b.Replay()
			if rerr != nil {
				t.Fatalf("replay: %v", rerr)
			}
			if !crash.SameFailure(got, b.Err) {
				t.Fatalf("replay diverged:\n  recorded:   %v\n  reproduced: %v", b.Err.Summary(), got.Summary())
			}
		})
	}
}
