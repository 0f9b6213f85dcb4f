package sdsp_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/funcsim"
	"repro/internal/loader"
	"repro/sdsp"
)

// Differential tier for heterogeneous mode. Every mixed pairing must
// retire architectural state identical to the functional reference under
// deterministic fault schedules, with per-cycle invariant checking (which
// now asserts slot isolation) and the watchdog armed; and each program of
// a mix must retire exactly the state it retires when run solo, so
// multiprogramming is architecturally invisible. Three pairings ×
// 1/2/4/6 threads × 17 seeds = 204 schedules, the same budget as the
// homogeneous fault tier; the memory-hierarchy configuration rotates
// with the seed so L2, victim buffer, and prefetcher all run under fire.

// Small MiniC workloads for mix testing: the same shapes the compiler
// study uses (inner product, blocked matrix multiply) scaled down so a
// 204-schedule differential sweep stays fast.
const mixDotSrc = `
int n = 96;
float xs[96];
float zs[96];
float partial[6];
float q;

void main() {
	int i; int lo; int hi; float acc;
	lo = tid() * n / nth();
	hi = (tid() + 1) * n / nth();
	for (i = lo; i < hi; i = i + 1) {
		xs[i] = itof(i % 23) * 0.125;
		zs[i] = itof(i % 19) * 0.25;
	}
	barrier();
	acc = 0.0;
	for (i = lo; i < hi; i = i + 1) {
		acc = acc + xs[i] * zs[i];
	}
	partial[tid()] = acc;
	barrier();
	if (tid() == 0) {
		acc = 0.0;
		for (i = 0; i < nth(); i = i + 1) { acc = acc + partial[i]; }
		q = acc;
	}
}
`

const mixMatSrc = `
int n = 9;
float a[81];
float b[81];
float c[81];

void main() {
	int i; int j; int k; int lo; int hi; float acc;
	lo = tid() * n / nth();
	hi = (tid() + 1) * n / nth();
	for (i = lo; i < hi; i = i + 1) {
		for (j = 0; j < n; j = j + 1) {
			a[i * n + j] = itof((i * 7 + j * 3) % 11) * 0.25 - 1.0;
			b[i * n + j] = itof((i * 5 + j * 13) % 9) * 0.5 - 2.0;
		}
	}
	barrier();
	for (i = lo; i < hi; i = i + 1) {
		for (j = 0; j < n; j = j + 1) {
			acc = 0.0;
			for (k = 0; k < n; k = k + 1) {
				acc = acc + a[i * n + k] * b[k * n + j];
			}
			c[i * n + j] = acc;
		}
	}
}
`

// mixPairing names one unlike-kernel pairing and knows how to build it
// for any total thread count. At one thread the mix degenerates to its
// first slot alone, still exercising the heterogeneous layout machinery.
type mixPairing struct {
	name  string
	build func(t *testing.T, threads int) *sdsp.Mix
}

// kernelSlot builds a paper kernel for a k-thread slot group.
func kernelSlot(t *testing.T, name string, k int) sdsp.MixSlot {
	t.Helper()
	obj, err := sdsp.Workload(name, sdsp.WorkloadParams{Threads: k})
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	return sdsp.MixSlot{Object: obj, Threads: k}
}

// minicSlot compiles a MiniC program for a k-thread slot group with an
// explicit (lean) register budget.
func minicSlot(t *testing.T, src string, k, regs int) sdsp.MixSlot {
	t.Helper()
	obj, err := sdsp.CompileMiniC(src, regs)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return sdsp.MixSlot{Object: obj, Threads: k, Regs: regs}
}

// split halves a total thread count between two slots (first slot gets
// the remainder); a total of one means a single-slot mix.
func split(total int) (a, b int) {
	b = total / 2
	return total - b, b
}

func mixPairings(t *testing.T) []mixPairing {
	return []mixPairing{
		{"LL1+Sieve", func(t *testing.T, threads int) *sdsp.Mix {
			a, b := split(threads)
			slots := []sdsp.MixSlot{kernelSlot(t, "LL1", a)}
			if b > 0 {
				slots = append(slots, kernelSlot(t, "Sieve", b))
			}
			return &sdsp.Mix{Slots: slots}
		}},
		{"Matrix+lean", func(t *testing.T, threads int) *sdsp.Mix {
			a, b := split(threads)
			slots := []sdsp.MixSlot{kernelSlot(t, "Matrix", a)}
			if b > 0 {
				slots = append(slots, minicSlot(t, mixDotSrc, b, 12))
			}
			return &sdsp.Mix{Slots: slots}
		}},
		{"MatC+DotC", func(t *testing.T, threads int) *sdsp.Mix {
			a, b := split(threads)
			slots := []sdsp.MixSlot{minicSlot(t, mixMatSrc, a, 16)}
			if b > 0 {
				slots = append(slots, minicSlot(t, mixDotSrc, b, 12))
			}
			return &sdsp.Mix{Slots: slots}
		}},
	}
}

// hierarchyFor rotates the memory-hierarchy configuration with the
// schedule seed: baseline L1-only, L1+L2, and the full L1+L2+victim+
// prefetch stack on a shrunken L1 (so the backside structures actually
// see misses). All of it is timing-only, so the differential property
// must hold under every variant.
func hierarchyFor(cfg *sdsp.Config, seed uint64) string {
	switch seed % 3 {
	case 1:
		cfg.Cache.L2 = cache.DefaultL2()
		return "l2"
	case 2:
		cfg.Cache.SizeBytes = 1024
		cfg.Cache.L2 = cache.DefaultL2()
		cfg.Cache.VictimEntries = 4
		cfg.Cache.Prefetch = true
		return "full"
	default:
		return "l1"
	}
}

func TestMixFaultInjectionPreservesArchitecture(t *testing.T) {
	threadsList := []int{1, 2, 4, 6}
	seeds := 17
	if testing.Short() {
		seeds = 3
	}
	for _, p := range mixPairings(t) {
		for _, threads := range threadsList {
			for s := 0; s < seeds; s++ {
				p, threads := p, threads
				seed := uint64(s)*1000 + uint64(threads)*10 + uint64(len(p.name))
				t.Run(fmt.Sprintf("%s/t%d/seed%d", p.name, threads, seed), func(t *testing.T) {
					t.Parallel()
					mix := p.build(t, threads)
					cfg := sdsp.DefaultConfig(threads)
					cfg.Injector = scheduleFor(seed)
					cfg.CheckInvariants = true
					cfg.Watchdog = 200_000
					hier := hierarchyFor(&cfg, seed)
					if err := sdsp.VerifyMix(mix, cfg); err != nil {
						t.Fatalf("hier=%s schedule %v: %v", hier, cfg.Injector, err)
					}
				})
			}
		}
	}
}

// TestMixSoloIdentity pins the multiprogramming-invisibility property:
// a program's slot in a mixed run must retire byte-for-byte the memory
// image and register file it retires when its thread group runs solo.
// TID/NTH are slot-virtual and each slot owns a private 2 MiB window,
// so interference may change timing but never architectural state.
func TestMixSoloIdentity(t *testing.T) {
	for _, threads := range []int{2, 4, 6} {
		for _, p := range mixPairings(t) {
			p, threads := p, threads
			t.Run(fmt.Sprintf("%s/t%d", p.name, threads), func(t *testing.T) {
				t.Parallel()
				mix := p.build(t, threads)
				cfg := sdsp.DefaultConfig(threads)
				cfg.CheckInvariants = true
				cfg.Watchdog = 200_000
				m, err := sdsp.NewMixMachine(mix, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(); err != nil {
					t.Fatalf("mixed run: %v", err)
				}
				mixed := m.Memory().Snapshot()

				globalT := 0
				for si, slot := range mix.Slots {
					// Solo oracle: the same object on its own machine at
					// the slot's group size.
					solo, err := sdsp.RunFunctional(slot.Object, slot.Threads)
					if err != nil {
						t.Fatalf("solo slot %d: %v", si, err)
					}
					soloMem := solo.Memory().Snapshot()
					base := loader.SlotBase(si) / 4
					for i, want := range soloMem {
						if got := mixed[base+uint32(i)]; got != want {
							t.Fatalf("slot %d memory diverges at %#x: mixed %#x, solo %#x",
								si, i*4, got, want)
						}
					}
					// Registers the program never touches are zero in both
					// runs, so comparing the full solo budget is safe even
					// when the mixed slot's budget is smaller.
					for k := 0; k < slot.Threads; k++ {
						for r := 1; r < solo.RegBudget(k); r++ {
							if got, want := m.Reg(globalT, r), solo.Reg(k, r); got != want {
								t.Fatalf("slot %d thread %d r%d: mixed %#x, solo %#x",
									si, k, r, got, want)
							}
						}
						globalT++
					}
				}
			})
		}
	}
}

// TestMixFlagAddressStaysInSlot: a sync primitive whose virtual address
// names another slot's flag window must fault in both simulators, as it
// does when the same program runs alone. 0x300000 is slot 1's flag base
// seen from slot 0; the sync controller's slot masking would accept it,
// so the simulators must check the virtual address first.
func TestMixFlagAddressStaysInSlot(t *testing.T) {
	rogue, err := sdsp.Assemble("main: li r1, 0x300000\n fstw r2, 0(r1)\n halt")
	if err != nil {
		t.Fatal(err)
	}
	victim, err := sdsp.Assemble("main: halt")
	if err != nil {
		t.Fatal(err)
	}
	mix := &sdsp.Mix{Slots: []sdsp.MixSlot{{Object: rogue, Threads: 1}, {Object: victim, Threads: 1}}}

	var mf *funcsim.MemFault
	if _, err := sdsp.RunMixFunctional(mix); !errors.As(err, &mf) {
		t.Errorf("functional mix run: got %v, want a *funcsim.MemFault", err)
	}
	if _, err := sdsp.RunFunctional(rogue, 1); !errors.As(err, &mf) {
		t.Errorf("functional solo run: got %v, want a *funcsim.MemFault", err)
	}
	var me *sdsp.MachineError
	if _, err := sdsp.RunMix(mix, sdsp.DefaultConfig(2)); !errors.As(err, &me) || me.Kind != core.FaultMem {
		t.Errorf("pipeline mix run: got %v, want a memory MachineError", err)
	}
}
