package sdsp_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/progen"
	"repro/sdsp"
)

// fuzzCase is the complete machine setup derived from the four fuzz
// inputs. Exactly one of obj (homogeneous) or mix (heterogeneous pair)
// is non-nil. The derivation lives in buildFuzzCase so the corpus
// counter test (hier_test.go) replays entries bit-for-bit.
type fuzzCase struct {
	obj *sdsp.Object
	mix *sdsp.Mix
	cfg sdsp.Config
	src string // generated source(s), for failure reports
}

// buildFuzzCase decodes the fuzz inputs:
//
//   - threads%6+1 is the thread count; bits 16+ of threads pick the
//     fetch policy.
//   - bits 16–17 of faultSeed pick the branch predictor; bits 18+
//     select a heterogeneous pairing (0 = classic homogeneous run,
//     1–3 = two progen programs with different register-budget splits)
//     that only engages with at least two threads.
//   - intensity%20 scales the fault rates; bits 16–18 of intensity gate
//     the memory hierarchy (bit 16 = L2, bit 17 = victim buffer, bit
//     18 = prefetcher), shrinking the L1 to 1 KB so fuzz-sized programs
//     actually miss into the backside structures; bits 19+ of
//     intensity are unused.
//
// Every pre-existing corpus value is below 2^16 in the high halves, so
// old entries keep exercising the paper-default single-level machine.
func buildFuzzCase(t *testing.T, progSeed int64, faultSeed, threads, intensity uint64) fuzzCase {
	t.Helper()
	n := int(threads%6) + 1
	p := progen.New(progSeed)
	obj, err := sdsp.Assemble(p.Source)
	if err != nil {
		t.Fatalf("progen seed %d emitted unassemblable source: %v", progSeed, err)
	}
	fc := fuzzCase{cfg: sdsp.DefaultConfig(n), src: p.Source}
	fc.cfg.Predictor = core.PredictorKind((faultSeed >> 16) % 4)
	fc.cfg.FetchPolicy = core.FetchPolicy((threads >> 16) % 6)
	if fc.cfg.Predictor != sdsp.PredTwoBit {
		fc.cfg.BTBEntries = 64
	}
	if hier := (intensity >> 16) % 8; hier != 0 {
		fc.cfg.Cache.SizeBytes = 1024 // 1 KB L1: progen footprints spill
		if (hier & 1) != 0 {
			fc.cfg.Cache.L2 = cache.DefaultL2()
		}
		if (hier & 2) != 0 {
			fc.cfg.Cache.VictimEntries = 8
		}
		if (hier & 4) != 0 {
			fc.cfg.Cache.Prefetch = true
		}
	}
	fc.cfg.CheckInvariants = true
	fc.cfg.Watchdog = 200_000
	if r := float64(intensity%20) / 100; r > 0 { // 0 .. 0.19
		fc.cfg.Injector = fault.New(faultSeed, fault.Rates{
			CacheMiss:  r,
			Writeback:  r / 2,
			FlipBTB:    r,
			Squash:     r / 4,
			SyncGrant:  r / 2,
			SyncWakeup: r / 4,
			FetchMis:   r,
			FetchBlock: r / 2,
			SBHold:     r / 2,
			CWShrink:   r / 4,
		})
	}

	mixSel := (faultSeed >> 18) % 4
	if mixSel == 0 || n < 2 {
		fc.obj = obj
		return fc
	}
	// Heterogeneous pair: a second progen program in its own slot. The
	// three variants differ in how the 128 physical registers are split
	// (0 = equal share of the total partition; 21 is progen's own need,
	// the tightest budget it assembles under).
	var seedB int64
	var regsA, regsB int
	switch mixSel {
	case 1:
		seedB = progSeed + 1
	case 2:
		seedB, regsA = progSeed^0x5a5a, 21
	case 3:
		seedB, regsA, regsB = 3*progSeed+7, 21, 21
	}
	pb := progen.New(seedB)
	objB, err := sdsp.Assemble(pb.Source)
	if err != nil {
		t.Fatalf("progen seed %d emitted unassemblable source: %v", seedB, err)
	}
	ka := n - n/2
	fc.mix = &sdsp.Mix{Slots: []sdsp.MixSlot{
		{Object: obj, Threads: ka, Regs: regsA},
		{Object: objB, Threads: n - ka, Regs: regsB},
	}}
	fc.src = p.Source + "\n; --- slot B ---\n" + pb.Source
	return fc
}

// FuzzVerify feeds randomly generated SPMD programs through the full
// differential pipeline (funcsim vs timing core) under seeded fault
// schedules, with per-cycle invariant checking on. Any divergence in
// final memory, any invariant violation, and any deadlock is a crash
// the fuzzer minimizes. The generator's seed is the fuzz input, so
// every interesting program is reproducible from the corpus entry.
// See buildFuzzCase for how the inputs select predictor, fetch policy,
// memory hierarchy, and heterogeneous pairings.
//
// Seed corpus lives in testdata/fuzz/FuzzVerify; run with
//
//	go test ./sdsp -fuzz FuzzVerify -fuzztime 30s
func FuzzVerify(f *testing.F) {
	f.Add(int64(1), uint64(0), uint64(4), uint64(0))                      // plain program, no faults
	f.Add(int64(424242), uint64(7), uint64(4), uint64(5))                 // medium faults
	f.Add(int64(31337), uint64(3), uint64(1), uint64(9))                  // single thread, heavy
	f.Add(int64(99), uint64(12), uint64(6), uint64(2))                    // full thread house
	f.Add(int64(-5), uint64(1), uint64(2), uint64(13))                    // negative seed, storm range
	f.Add(int64(9001), uint64((1<<16)+7), uint64(4), uint64(8))           // gshare, small BTB aliasing
	f.Add(int64(-777), uint64((2<<16)+11), uint64((3<<16)+3), uint64(12)) // gshare-pt under ICount
	f.Add(int64(4242), uint64((3<<16)+1), uint64(2), uint64(15))          // TAGE tag aliasing, faults on
	f.Add(int64(808), uint64(5), uint64((4<<16)+5), uint64(6))            // ICOUNT-feedback hold path
	f.Add(int64(13579), uint64((3<<16)+2), uint64((5<<16)+1), uint64(10)) // TAGE + confidence throttle
	// Hierarchy + heterogeneous entries. The first three were chosen by
	// sweeping progen seeds under the full 1 KB-L1 + L2 + victim +
	// prefetch configuration for programs whose access streams actually
	// force victim-buffer hits and prefetch-triggered evictions; the
	// counters are asserted non-zero by TestFuzzCorpusHitsHierarchy
	// (hier_test.go), so these entries can't silently rot into no-ops.
	f.Add(int64(383), uint64(9), uint64(4), uint64((7<<16)+11))                 // full hierarchy: victim hits, L2 hits, prefetch hits AND evictions
	f.Add(int64(326), uint64(9), uint64(4), uint64((7<<16)+11))                 // heavy victim ping-pong (~200 victim hits) + prefetch evictions
	f.Add(int64(382), uint64(9), uint64(4), uint64((7<<16)+11))                 // victim + L2 + prefetch-eviction mix on a third access pattern
	f.Add(int64(1618), uint64((1<<18)+4), uint64(2), uint64((2<<16)+3))         // heterogeneous pair (equal split) + victim-only hierarchy
	f.Add(int64(3141), uint64((2<<18)+(1<<16)+2), uint64(5), uint64((5<<16)+7)) // L2+prefetch, gshare, 6-thread mixed pair with a pinned 21-reg slot
	f.Add(int64(-271), uint64((3<<18)+6), uint64(3), uint64((4<<16)+14))        // prefetch only, both slots on the 21-reg budget, heavy faults
	// Plain seeds. The bits they set at 19+ of intensity are unused.
	f.Add(int64(2718), uint64(6), uint64(4), uint64((1<<19)+4))           // five threads, storm-range faults
	f.Add(int64(-1414), uint64((1<<16)+9), uint64(2), uint64((30<<19)+7)) // gshare on three threads, medium faults
	f.Add(int64(161803), uint64(8), uint64(5), uint64((31<<19)+11))       // six threads, the highest fault rates
	f.Fuzz(func(t *testing.T, progSeed int64, faultSeed, threads, intensity uint64) {
		fc := buildFuzzCase(t, progSeed, faultSeed, threads, intensity)
		var err error
		if fc.mix != nil {
			err = sdsp.VerifyMix(fc.mix, fc.cfg)
		} else {
			err = sdsp.Verify(fc.obj, fc.cfg)
		}
		if err != nil {
			t.Fatalf("seed %d threads %d pred %v fetch %v schedule %v: %v\n%s",
				progSeed, fc.cfg.Threads, fc.cfg.Predictor, fc.cfg.FetchPolicy, fc.cfg.Injector, err, fc.src)
		}
	})
}
