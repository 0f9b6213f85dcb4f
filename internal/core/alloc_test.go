package core

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/cover"
)

// allocWorkload is a never-halting four-thread program that keeps every
// hot-path structure busy: each thread walks a private array slice doing
// load → add → store → branch, so the steady state exercises fetch,
// dispatch, rename, issue, the store buffer (with forwarding candidates),
// the drain queue, writeback, and commit indefinitely. Threads never
// halt, so the machine can be stepped for as many cycles as a
// measurement needs.
const allocWorkload = `
	main:  li   r3, data        ; base address
	       slli r4, r1, 4       ; thread offset: tid * 16 bytes
	       add  r3, r3, r4
	loop:  lw   r5, 0(r3)
	       addi r5, r5, 1
	       sw   r5, 0(r3)
	       lw   r6, 4(r3)
	       add  r6, r6, r5
	       sw   r6, 4(r3)
	       andi r7, r5, 3
	       beq  r7, r0, skip    ; data-dependent branch: sometimes mispredicts
	       addi r8, r8, 1
	skip:  b    loop
	.data
	data:  .word 0, 0, 0, 0
	       .word 0, 0, 0, 0
	       .word 0, 0, 0, 0
	       .word 0, 0, 0, 0
`

// missBoundWorkload is a single-thread pointer-stride walk over an 8 KB
// footprint. On a 1 KB L1 its steady state is one cache miss after
// another: loads retry against a refilling or blocked cache, a path
// allocWorkload's warm loop never reaches.
const missBoundWorkload = `
main: li   r1, data
      li   r2, 512         ; words to touch (8 KB span at stride 16B)
loop: lw   r3, 0(r1)
      add  r4, r4, r3
      addi r1, r1, 16
      addi r2, r2, -1
      bne  r2, r0, loop
      li   r5, out
      sw   r4, 0(r5)
      halt
.data
out:  .word 0
data: .space 8192
`

// warmMachine builds a machine running allocWorkload and steps it past
// the cold-start phase (pool growth, predictor training, coverage map
// population) so that subsequent cycles measure the steady state.
func warmMachine(t testing.TB, cfg Config) *Machine {
	t.Helper()
	obj, err := asm.Assemble(allocWorkload)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	m, err := New(obj, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 5000; i++ {
		m.Cycle()
	}
	if m.fault != nil {
		t.Fatalf("warm-up faulted: %v", m.fault)
	}
	return m
}

// allocsPerCycle reports the average allocations per simulated cycle of
// a warm machine, measured over batches of 500 cycles.
func allocsPerCycle(m *Machine) float64 {
	const batch = 500
	return testing.AllocsPerRun(10, func() {
		for i := 0; i < batch; i++ {
			m.Cycle()
		}
	}) / batch
}

// TestCycleAllocFree asserts the tentpole property: a warm machine under
// the default configuration allocates nothing per cycle. Any regression
// here means a hot-path structure escaped the pools in pool.go.
func TestCycleAllocFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 0
	m := warmMachine(t, cfg)
	if got := allocsPerCycle(m); got != 0 {
		t.Errorf("warm Cycle allocates %.4f objects/cycle, want 0", got)
	}
}

// TestCycleAllocFreeWithCoverage asserts the same property with event
// coverage enabled: cover.Set.Hit is array-indexed, and the two lazy
// coverage maps (thread-occupancy pairs, trained BTB entries) stop
// growing once the finite key space of a steady-state loop is populated.
func TestCycleAllocFreeWithCoverage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 0
	cfg.Coverage = cover.NewSet()
	m := warmMachine(t, cfg)
	if got := allocsPerCycle(m); got != 0 {
		t.Errorf("warm Cycle with coverage allocates %.4f objects/cycle, want 0", got)
	}
}

// TestCycleAllocFreePredictors asserts the zero-alloc property for every
// predictor in the family: gshare and TAGE tables (PHTs, tagged
// components, per-thread histories) are all preallocated at New, so a
// warm machine stays allocation-free no matter which predictor is live.
func TestCycleAllocFreePredictors(t *testing.T) {
	for _, pred := range []PredictorKind{PredGshare, PredGshareThread, PredTAGE} {
		pred := pred
		t.Run(pred.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.MaxCycles = 0
			cfg.Predictor = pred
			m := warmMachine(t, cfg)
			if got := allocsPerCycle(m); got != 0 {
				t.Errorf("warm Cycle with %v allocates %.4f objects/cycle, want 0", pred, got)
			}
		})
	}
}

// TestCycleAllocFreeFetchPolicies asserts the zero-alloc property for
// the new fetch policies: the ICOUNT-feedback tally reuses the
// preallocated occupancy scratch slice, and the confidence throttle is
// two integer fields on the machine.
func TestCycleAllocFreeFetchPolicies(t *testing.T) {
	for _, pol := range []FetchPolicy{ICountFeedback, ConfThrottle} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.MaxCycles = 0
			cfg.FetchPolicy = pol
			m := warmMachine(t, cfg)
			if got := allocsPerCycle(m); got != 0 {
				t.Errorf("warm Cycle under %v allocates %.4f objects/cycle, want 0", pol, got)
			}
		})
	}
}

// TestCycleAllocFreeHierarchy asserts the zero-alloc property with the
// whole backside memory hierarchy enabled and the L1 shrunk so the
// workload actually misses into it: the L2 tag array, victim FIFO, and
// prefetch buffer are preallocated at New and value-typed on the miss
// path (internal/cache has matching tests at the cache level).
func TestCycleAllocFreeHierarchy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 0
	cfg.Cache.SizeBytes = 1024
	cfg.Cache.Ways = 1
	cfg.Cache.L2 = cache.DefaultL2()
	cfg.Cache.VictimEntries = 8
	cfg.Cache.Prefetch = true
	m := warmMachine(t, cfg)
	if got := allocsPerCycle(m); got != 0 {
		t.Errorf("warm Cycle with L2+victim+prefetch allocates %.4f objects/cycle, want 0", got)
	}
}

// TestCycleAllocParanoidBudget documents the paranoid-mode allocation
// budget. CheckInvariants walks the whole machine each cycle building
// tag/address sets in fresh maps, so it allocates by design; this test
// pins the measured budget (~10 allocs/cycle on the reference workload,
// see docs/PERFORMANCE.md) so an accidental order-of-magnitude
// regression — e.g. a quadratic re-walk — still fails loudly.
func TestCycleAllocParanoidBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 0
	cfg.CheckInvariants = true
	m := warmMachine(t, cfg)
	got := allocsPerCycle(m)
	t.Logf("paranoid mode: %.2f allocs/cycle", got)
	if got > 60 {
		t.Errorf("paranoid Cycle allocates %.2f objects/cycle, budget 60", got)
	}
}

// TestRunAllocFreeMissBound asserts that a whole Run of a miss-bound
// program allocates nothing, from a fresh machine through the final
// flush and statistics. Machines are built ahead of time so only Run
// is measured (AllocsPerRun invokes the function runs+1 times: one
// warm-up plus the measured runs).
func TestRunAllocFreeMissBound(t *testing.T) {
	obj, err := asm.Assemble(missBoundWorkload)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Threads = 1
	cfg.Cache.SizeBytes = 1024
	cfg.Cache.MissPenalty = 40
	const runs = 5
	machines := make([]*Machine, 0, runs+1)
	for i := 0; i <= runs; i++ {
		m, err := New(obj, cfg)
		if err != nil {
			t.Fatal(err)
		}
		machines = append(machines, m)
	}
	next := 0
	var runErr error
	avg := testing.AllocsPerRun(runs, func() {
		m := machines[next]
		next++
		if _, err := m.Run(); err != nil && runErr == nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatalf("measured run failed: %v", runErr)
	}
	if st := machines[0].Stats(); st.Cache.Misses == 0 {
		t.Fatal("miss-bound workload never missed")
	}
	if avg != 0 {
		t.Errorf("miss-bound Run allocates %.2f objects/run, want 0", avg)
	}
}
