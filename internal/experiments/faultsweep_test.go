package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/crash"
	"repro/internal/kernels"
)

// renderFaultSweep runs only the fault-sweep experiment on a fresh
// runner and returns its rendered tables plus the recorded curves.
func renderFaultSweep(t *testing.T, jobs int) (string, []DegradationCurve) {
	t.Helper()
	e, err := Get("faultsweep")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(kernels.Small)
	tables, _, err := r.RunExperiments([]Experiment{e}, jobs)
	if err != nil {
		t.Fatalf("faultsweep (j=%d): %v", jobs, err)
	}
	var buf bytes.Buffer
	for _, ts := range tables {
		for _, tab := range ts {
			if err := tab.Render(&buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.String(), r.Curves
}

// The sweep's tables AND its exported degradation curves must be
// byte-identical between sequential and 8-way execution — the -json
// payload is part of the determinism contract, not just stdout.
func TestFaultSweepParallelDeterminism(t *testing.T) {
	t1, c1 := renderFaultSweep(t, 1)
	t8, c8 := renderFaultSweep(t, 8)
	if t1 != t8 {
		d := firstDiff(t1, t8)
		t.Fatalf("tables differ between -j 1 and -j 8 at byte %d: %q vs %q",
			d, excerpt(t1, d), excerpt(t8, d))
	}
	if !reflect.DeepEqual(c1, c8) {
		t.Fatal("degradation curves differ between -j 1 and -j 8")
	}
}

// Every curve in the small sweep must be fully populated, and every
// axis must demonstrably inject: a sweep whose injectors never fire
// would render plausible-looking all-zero degradation tables.
func TestFaultSweepCurvesPopulated(t *testing.T) {
	_, curves := renderFaultSweep(t, 8)
	plan, err := planFor(kernels.Small)
	if err != nil {
		t.Fatal(err)
	}
	want := len(plan.kernels) * len(plan.threads) * len(plan.policies) * len(sweepAxes)
	if len(curves) != want {
		t.Fatalf("recorded %d curves, want %d", len(curves), want)
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
			cfg := r.config(2)
			cfg.MaxCycles = 10 // guaranteed runaway
			_, err := r.runCell(cellSpec{label: tc.name, cfg: cfg, slots: []cellSlot{tc.slot}})
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
