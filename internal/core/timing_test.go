package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cover"
	"repro/internal/fault"
	"repro/internal/kernels"
)

// TestPhaseTimingNeutral asserts that the PhaseTiming stopwatch is purely
// observational: the same program on the same configuration simulates
// the exact same run with and without PhaseTiming, while the timed run
// surfaces a non-zero breakdown covering every phase.
func TestPhaseTimingNeutral(t *testing.T) {
	src := `
		main:  li   r5, buf
		       addi r3, r0, 40
		loop:  addi r4, r4, 3
		       sw   r4, 0(r5)
		       lw   r6, 0(r5)
		       addi r3, r3, -1
		       bne  r3, r0, loop
		       halt
		.data
		buf:   .word 0
	`
	_, plain := runSrc(t, src, 1)
	cfg := DefaultConfig()
	cfg.Threads = 1
	cfg.MaxCycles = 2_000_000
	cfg.PhaseTiming = true
	_, timed := runSrcCfg(t, src, cfg)

	if plain.Cycles != timed.Cycles {
		t.Errorf("PhaseTiming changed simulated cycles: %d != %d", timed.Cycles, plain.Cycles)
	}
	if plain.Committed != timed.Committed {
		t.Errorf("PhaseTiming changed committed count: %d != %d", timed.Committed, plain.Committed)
	}
	if plain.PhaseTime.Total() != 0 {
		t.Errorf("untimed run has PhaseTime %v, want zero", plain.PhaseTime)
	}
	if timed.PhaseTime.Total() <= 0 {
		t.Errorf("timed run has no PhaseTime (total %v)", timed.PhaseTime.Total())
	}

	out := timed.PhaseTime.String()
	for p := Phase(0); p < NumPhases; p++ {
		if !strings.Contains(out, p.String()) {
			t.Errorf("breakdown missing phase %q:\n%s", p, out)
		}
	}

	// cycleTimed must mirror Cycle stage for stage, so every counter must
	// agree. A 4-thread Water run has cache misses, barriers, and flag
	// traffic; with and without a fault schedule (and with coverage on),
	// the whole Stats struct — faults and coverage included — must match
	// once PhaseTime is zeroed.
	b, err := kernels.Get("Water")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := b.Build(kernels.Params{Threads: 4, Scale: kernels.Small})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"none", "heavy,seed=7"} {
		t.Run(spec, func(t *testing.T) {
			run := func(timed bool) *Stats {
				cfg := DefaultConfig()
				cfg.Threads = 4
				cfg.PhaseTiming = timed
				cfg.Coverage = cover.NewSet()
				if inj, err := fault.ParseSpec(spec); err != nil {
					t.Fatal(err)
				} else if inj != nil {
					cfg.Injector = inj
				}
				m, err := New(obj, cfg)
				if err != nil {
					t.Fatal(err)
				}
				st, err := m.Run()
				if err != nil {
					t.Fatalf("timed=%v: %v", timed, err)
				}
				return st
			}
			plain, timed := run(false), run(true)
			if plain.Cache.Misses == 0 || plain.Sync.Reads == 0 {
				t.Fatalf("workload exercises too little: %d misses, %d flag reads",
					plain.Cache.Misses, plain.Sync.Reads)
			}
			if spec != "none" && plain.Faults.Total() == 0 {
				t.Fatal("fault schedule injected nothing")
			}
			if timed.PhaseTime.Total() <= 0 {
				t.Fatal("timed run has no PhaseTime")
			}
			timed.PhaseTime = PhaseTimes{}
			if !reflect.DeepEqual(plain, timed) {
				t.Errorf("PhaseTiming changed the run:\nplain: %+v\ntimed: %+v", plain, timed)
			}
		})
	}
}
