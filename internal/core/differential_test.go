package core

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/funcsim"
	"repro/internal/kernels"
	"repro/internal/progen"
)

// Differential testing: randomly generated SPMD programs must leave
// identical architectural memory on the functional simulator and the
// pipeline, across machine configurations. This is the repository's
// broadest correctness net — it has no idea what the programs compute,
// only that the two simulators must agree.

func diffConfigs() map[string]Config {
	mk := func(threads int, mod func(*Config)) Config {
		c := DefaultConfig()
		c.Threads = threads
		c.MaxCycles = 5_000_000
		if mod != nil {
			mod(&c)
		}
		return c
	}
	return map[string]Config{
		"default4":   mk(4, nil),
		"single":     mk(1, nil),
		"six":        mk(6, nil),
		"masked":     mk(4, func(c *Config) { c.FetchPolicy = MaskedRR }),
		"cswitch":    mk(3, func(c *Config) { c.FetchPolicy = CondSwitch }),
		"lowest":     mk(4, func(c *Config) { c.CommitPolicy = LowestOnly; c.CommitWindow = 1 }),
		"tinySU":     mk(4, func(c *Config) { c.SUEntries = 8 }),
		"deepSU":     mk(4, func(c *Config) { c.SUEntries = 64 }),
		"direct":     mk(4, func(c *Config) { c.Cache.Ways = 1 }),
		"noBypass":   mk(4, func(c *Config) { c.Bypassing = false }),
		"scoreboard": mk(4, func(c *Config) { c.Renaming = false }),
		"narrow":     mk(2, func(c *Config) { c.IssueWidth = 1; c.WritebackWidth = 1 }),
		"tinyBuf":    mk(5, func(c *Config) { c.StoreBuffer = 4 }),
		"enhanced":   mk(4, func(c *Config) { c.FUs = EnhancedFUs() }),
		"icount":     mk(4, func(c *Config) { c.FetchPolicy = ICount }),
		"forwarding": mk(4, func(c *Config) { c.StoreForwarding = true }),
		"onebit":     mk(4, func(c *Config) { c.PredictorBits = 1 }),
		"privateBTB": mk(4, func(c *Config) { c.PerThreadBTB = true }),
		"gshare":     mk(4, func(c *Config) { c.Predictor = PredGshare }),
		"gsharePT":   mk(4, func(c *Config) { c.Predictor = PredGshareThread }),
		"tage":       mk(4, func(c *Config) { c.Predictor = PredTAGE }),
		"icountFB":   mk(4, func(c *Config) { c.FetchPolicy = ICountFeedback }),
		"confThrot":  mk(5, func(c *Config) { c.FetchPolicy = ConfThrottle; c.Predictor = PredGshare }),
		"realICache": mk(4, func(c *Config) {
			ic := cache.Config{SizeBytes: 2048, LineBytes: 32, Ways: 2, MissPenalty: 8}
			c.ICache = &ic
		}),
	}
}

func diffOne(t *testing.T, seed int64, cfgName string, cfg Config) {
	t.Helper()
	p := progen.New(seed)
	obj, err := asm.Assemble(p.Source)
	if err != nil {
		t.Fatalf("seed %d: assemble: %v\n%s", seed, err, p.Source)
	}
	ref, err := funcsim.RunProgram(obj, cfg.Threads, 100_000_000)
	if err != nil {
		t.Fatalf("seed %d: funcsim: %v", seed, err)
	}
	m, err := New(obj, cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("seed %d cfg %s: %v", seed, cfgName, err)
	}
	if addr, got, want, differ := m.Memory().Diff(ref.Memory()); differ {
		t.Fatalf("seed %d cfg %s: memory diverges at %#x: pipeline %#x, funcsim %#x",
			seed, cfgName, addr, got, want)
	}
	for tid := 0; tid < cfg.Threads; tid++ {
		for r := 1; r < ref.RegsPerThread(); r++ {
			if got, want := m.Reg(tid, r), ref.Reg(tid, r); got != want {
				t.Fatalf("seed %d cfg %s: thread %d r%d = %#x, funcsim %#x",
					seed, cfgName, tid, r, got, want)
			}
		}
	}
}

// TestDifferentialRandomPrograms sweeps seeds under the default config
// and a rotating alternate config per seed.
func TestDifferentialRandomPrograms(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 15
	}
	cfgs := diffConfigs()
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			diffOne(t, seed, "default4", cfgs["default4"])
			alt := names[int(seed)%len(names)]
			diffOne(t, seed, alt, cfgs[alt])
		})
	}
}

// TestDifferentialAllConfigsOneSeed runs one program through every
// configuration, so each knob gets direct differential coverage.
func TestDifferentialAllConfigsOneSeed(t *testing.T) {
	for name, cfg := range diffConfigs() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			diffOne(t, 424242, name, cfg)
			diffOne(t, 31337, name, cfg)
		})
	}
}

// diffKernel cross-checks the timing core against funcsim on a real
// paper kernel: both simulators run the same object and must leave
// identical architectural memory, and both images must pass the
// kernel's golden check. Registers are deliberately not compared —
// barrier spin reads and fetch-add results are interleaving-dependent,
// while final memory is not (the kernels are data-race free by
// construction).
func diffKernel(t *testing.T, b *kernels.Benchmark, threads int, cfg Config) {
	t.Helper()
	p := kernels.Params{Threads: threads, Scale: kernels.Small}
	obj, err := b.Build(p)
	if err != nil {
		t.Fatalf("%s: build: %v", b.Name, err)
	}
	ref, err := funcsim.RunProgram(obj, threads, 200_000_000)
	if err != nil {
		t.Fatalf("%s (t=%d): funcsim: %v", b.Name, threads, err)
	}
	cfg.Threads = threads
	m, err := New(obj, cfg)
	if err != nil {
		t.Fatalf("%s (t=%d): %v", b.Name, threads, err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("%s (t=%d): pipeline: %v", b.Name, threads, err)
	}
	if err := b.Check(ref.Memory(), obj, p); err != nil {
		t.Fatalf("%s (t=%d): funcsim image fails golden check: %v", b.Name, threads, err)
	}
	if err := b.Check(m.Memory(), obj, p); err != nil {
		t.Fatalf("%s (t=%d): pipeline image fails golden check: %v", b.Name, threads, err)
	}
	if addr, got, want, differ := m.Memory().Diff(ref.Memory()); differ {
		t.Fatalf("%s (t=%d): memory diverges at %#x: pipeline %#x, funcsim %#x",
			b.Name, threads, addr, got, want)
	}
}

// TestDifferentialKernels cross-checks funcsim vs the timing core on
// real paper kernels (beyond the random progen corpus): a Livermore
// loop, the synchronization-heavy recurrence, and two Group II
// applications, across the thread range the 21-register convention
// supports.
func TestDifferentialKernels(t *testing.T) {
	cases := []string{"LL1", "LL5", "Matrix", "Sieve"}
	threadsList := []int{1, 2, 4}
	if !testing.Short() {
		threadsList = append(threadsList, 6)
	}
	for _, name := range cases {
		b, err := kernels.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range threadsList {
			b, n := b, n
			t.Run(fmt.Sprintf("%s/t%d", name, n), func(t *testing.T) {
				t.Parallel()
				diffKernel(t, b, n, DefaultConfig())
			})
		}
	}
}

// leanKernelSrc is a compact SPMD kernel confined to r1..r12, so it
// fits the 16-register budget of an 8-thread partition (the paper
// kernels need 21 registers and top out at 6 threads). Each thread
// computes y[i] = 3*x[i] + 1 over its slice of 64 words and bumps a
// shared fetch-add counter once per element, discarding the
// (order-dependent) result into r0 — final state is deterministic.
const leanKernelSrc = `
main: tid  r1
      nth  r2
      li   r3, 64
      div  r4, r3, r2        ; chunk = 64/nth (exact for 1,2,4,8)
      mul  r5, r1, r4        ; lo
      add  r6, r5, r4        ; hi
      slli r8, r5, 2
      li   r7, xs
      add  r7, r7, r8        ; &x[lo]
      li   r9, ys
      add  r9, r9, r8        ; &y[lo]
      li   r12, counter
loop: bge  r5, r6, done
      lw   r10, 0(r7)
      slli r11, r10, 1
      add  r11, r11, r10     ; 3*x[i]
      addi r11, r11, 1
      sw   r11, 0(r9)
      fai  r0, 0(r12)
      addi r7, r7, 4
      addi r9, r9, 4
      addi r5, r5, 1
      b    loop
done: halt
.data
xs: .word 7, -3, 11, 0, 25, 14, -9, 2, 31, 6, -17, 8, 19, -1, 4, 23
  .word 5, 12, -8, 30, 13, -21, 9, 1, 28, -4, 16, 3, -11, 22, 10, 27
  .word -2, 18, 7, -15, 29, 0, 20, 6, -13, 24, 11, -5, 17, 2, 26, 15
  .word 8, -19, 3, 21, 12, -7, 30, 1, -23, 14, 9, 5, -10, 25, 4, 18
ys: .space 256
.flags
counter: .space 4
`

// TestDifferentialEightThreads drives the differential net through
// 1/2/4/8-thread configurations. At 8 threads every register above r15
// is out of budget, so this uses the lean kernel; the 8-thread case is
// the only coverage of a register partition narrower than the paper's.
func TestDifferentialEightThreads(t *testing.T) {
	obj, err := asm.Assemble(leanKernelSrc)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	mods := map[string]func(*Config){
		"default":    nil,
		"cswitch":    func(c *Config) { c.FetchPolicy = CondSwitch },
		"tinySU":     func(c *Config) { c.SUEntries = 16 },
		"direct":     func(c *Config) { c.Cache.Ways = 1 },
		"forwarding": func(c *Config) { c.StoreForwarding = true },
		"scoreboard": func(c *Config) { c.Renaming = false },
	}
	for _, threads := range []int{1, 2, 4, 8} {
		for name, mod := range mods {
			threads, name, mod := threads, name, mod
			t.Run(fmt.Sprintf("t%d/%s", threads, name), func(t *testing.T) {
				t.Parallel()
				ref, err := funcsim.RunProgram(obj, threads, 10_000_000)
				if err != nil {
					t.Fatalf("funcsim: %v", err)
				}
				cfg := DefaultConfig()
				cfg.Threads = threads
				cfg.MaxCycles = 5_000_000
				if mod != nil {
					mod(&cfg)
				}
				m, err := New(obj, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(); err != nil {
					t.Fatalf("pipeline: %v", err)
				}
				if addr, got, want, differ := m.Memory().Diff(ref.Memory()); differ {
					t.Fatalf("memory diverges at %#x: pipeline %#x, funcsim %#x", addr, got, want)
				}
				// This kernel's register state is interleaving-independent
				// (the fetch-add result is discarded), so compare it too.
				for tid := 0; tid < threads; tid++ {
					for r := 1; r <= 12; r++ {
						if got, want := m.Reg(tid, r), ref.Reg(tid, r); got != want {
							t.Fatalf("thread %d r%d = %#x, funcsim %#x", tid, r, got, want)
						}
					}
				}
				// The counter must read 64 regardless of arrival order.
				counter, err := obj.Symbol("counter")
				if err != nil {
					t.Fatal(err)
				}
				if got := ref.Memory().LoadWord(counter); got != 64 {
					t.Fatalf("counter = %d, want 64", got)
				}
			})
		}
	}
}
