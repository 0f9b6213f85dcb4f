package sdsp_test

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/cover"
	"repro/sdsp"
)

// Run/stepping differential: Machine.Run must be nothing more than the
// public clock, Cycle, applied until Done — no second way of advancing
// time. (The test keeps the name it had when Run also carried an
// idle-cycle skip path; that path is gone and this test keeps it gone.)
// It replays the robustness suite's 204 fault schedules (four paper
// kernels × 1/2/4 threads × 17 seeds, the exact corpus of
// TestFaultInjectionPreservesArchitecture) twice — once through Run,
// once stepped by hand through Cycle — and requires identical cycle
// counts, identical statistics field for field (including
// injected-fault counters), and identical coverage sets. Fault
// schedules are the adversarial case: injectors fire on absolute cycle
// numbers, so a Run that advanced time any other way would shift every
// perturbation after it.

// newScheduled builds one kernel/schedule machine with its own fault
// schedule (injectors are stateful) and coverage set.
func newScheduled(t *testing.T, name string, threads int, seed uint64) (*sdsp.Machine, *cover.Set) {
	t.Helper()
	obj, err := sdsp.Workload(name, sdsp.WorkloadParams{Threads: threads})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	cfg := sdsp.DefaultConfig(threads)
	cfg.Injector = scheduleFor(seed)
	cfg.Coverage = cover.NewSet()
	cfg.Watchdog = 200_000
	m, err := sdsp.NewMachine(obj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, cfg.Coverage
}

// runStepped drives m with Cycle until it is done or faults, then calls
// Run, which executes no further cycle and only closes out the run
// (final cache flush and statistics).
func runStepped(m *sdsp.Machine) (*sdsp.Stats, error) {
	for !m.Done() && m.Err() == nil {
		m.Cycle()
	}
	return m.Run()
}

func TestFastForwardDifferential(t *testing.T) {
	threadsList := []int{1, 2, 4}
	seeds := 17
	if testing.Short() {
		seeds = 3
	}
	var injected atomic.Uint64
	// The inner group barrier means every parallel subtest has finished
	// (and added its injection count) before the vacuity check below runs.
	t.Run("group", func(t *testing.T) {
		for _, name := range kernelsUnder {
			for _, threads := range threadsList {
				for s := 0; s < seeds; s++ {
					name, threads := name, threads
					seed := uint64(s)*1000 + uint64(threads)*10 + uint64(len(name))
					t.Run(fmt.Sprintf("%s/t%d/seed%d", name, threads, seed), func(t *testing.T) {
						t.Parallel()
						rm, runCov := newScheduled(t, name, threads, seed)
						run, err := rm.Run()
						if err != nil {
							t.Fatalf("Run: %v", err)
						}
						sm, stepCov := newScheduled(t, name, threads, seed)
						step, err := runStepped(sm)
						if err != nil {
							t.Fatalf("stepped: %v", err)
						}
						if run.Cycles != step.Cycles {
							t.Fatalf("cycle counts diverge: Run %d, stepped %d", run.Cycles, step.Cycles)
						}
						for _, e := range cover.Events() {
							if cr, cs := runCov.Count(e), stepCov.Count(e); cr != cs {
								t.Errorf("coverage %v diverges: Run %d, stepped %d", e, cr, cs)
							}
						}
						if t.Failed() {
							t.FailNow()
						}
						// Stats carries the coverage pointer; null it on both so
						// the remaining comparison is pure counters.
						run.Coverage, step.Coverage = nil, nil
						if !reflect.DeepEqual(run, step) {
							t.Fatalf("stats diverge:\nRun:     %+v\nstepped: %+v", run, step)
						}
						injected.Add(run.Faults.Total())
					})
				}
			}
		}
	})
	// A differential over unperturbed runs would not test the
	// absolute-cycle injectors; the corpus must actually inject.
	if got := injected.Load(); got == 0 {
		t.Fatal("no fault was injected across the whole 204-schedule corpus")
	} else {
		t.Logf("%d faults injected across the corpus", got)
	}
}
