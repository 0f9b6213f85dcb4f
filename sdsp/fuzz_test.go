package sdsp_test

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/fault"
	"repro/internal/progen"
	"repro/sdsp"
)

// fuzzCase is the complete machine setup derived from the four fuzz
// inputs. Exactly one of obj (homogeneous) or mix (heterogeneous pair)
// is non-nil. The derivation lives in buildFuzzCase so the corpus
// counter test (hier_test.go) replays entries bit-for-bit.
type fuzzCase struct {
	obj   *sdsp.Object
	mix   *sdsp.Mix
	cfg   sdsp.Config
	src   string    // generated source(s), for failure reports
	slack slackKind // resource the slack check enlarges
}

// slackKind names the resource FuzzVerify's slack check enlarges.
type slackKind uint64

const (
	slackNone slackKind = iota
	slackSU
	slackStoreBuffer
	slackFUs
)

// buildFuzzCase decodes the fuzz inputs:
//
//   - threads%6+1 is the thread count; bits 16+ of threads pick the
//     fetch policy.
//   - bits 16–17 of faultSeed pick the branch predictor; bits 18–19
//     select a heterogeneous pairing (0 = classic homogeneous run,
//     1–3 = two progen programs with different register-budget splits)
//     that only engages with at least two threads; bits 20+ choose the
//     resource the slack check enlarges (1 = the SU, 2 = the store
//     buffer, 3 = FUs; see checkSlack). Progen's store bursts refuse
//     stores on the paper's 8-entry buffer in every program tried, so
//     the store-buffer choice starts from a 16-entry one.
//   - intensity%20 scales the fault rates; bits 16–18 of intensity gate
//     the memory hierarchy (bit 16 = L2, bit 17 = victim buffer, bit
//     18 = prefetcher), shrinking the L1 to 1 KB so fuzz-sized programs
//     actually miss into the backside structures; bits 19+ of
//     intensity are unused.
//
// Every pre-existing corpus value is below 2^16 in the high halves, so
// old entries keep exercising the paper-default single-level machine,
// and no entry but the slack seeds sets bits 20+ of faultSeed.
func buildFuzzCase(t *testing.T, progSeed int64, faultSeed, threads, intensity uint64) fuzzCase {
	t.Helper()
	n := int(threads%6) + 1
	p := progen.New(progSeed)
	obj, err := sdsp.Assemble(p.Source)
	if err != nil {
		t.Fatalf("progen seed %d emitted unassemblable source: %v", progSeed, err)
	}
	fc := fuzzCase{cfg: sdsp.DefaultConfig(n), src: p.Source, slack: slackKind((faultSeed >> 20) % 4)}
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
	if fc.slack == slackStoreBuffer {
		fc.cfg.StoreBuffer = 16
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

// checkSlack is the slack-invariance property: a fault-free run that
// never ran short of fc.slack must reproduce its Stats exactly once
// that resource is enlarged, apart from the resource's own shape (the
// usage rows of added units, the store buffer's saturation event). The
// SU counts as used under ICountFeedback, which reads its size. An FU
// class was not short when no class was ever exhausted, or when its
// last unit never worked (issue takes the lowest free unit); each such
// class gains a unit. checkSlack reports whether the first run left
// the resource slack, so that the enlarged run was compared.
func checkSlack(t *testing.T, fc fuzzCase) bool {
	t.Helper()
	run := func(cfg sdsp.Config) *sdsp.Stats {
		cfg.Coverage = cover.NewSet()
		var st *sdsp.Stats
		var err error
		if fc.mix != nil {
			st, err = sdsp.RunMix(fc.mix, cfg)
		} else {
			st, err = sdsp.Run(fc.obj, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	base := run(fc.cfg)
	big := fc.cfg
	shape := cover.NumEvents // no event describes the resource's size
	switch fc.slack {
	case slackSU:
		if base.SUFullCycles != 0 || fc.cfg.FetchPolicy == core.ICountFeedback {
			return false
		}
		big.SUEntries *= 2
	case slackStoreBuffer:
		if base.StoreBufferFull != 0 {
			return false
		}
		big.StoreBuffer *= 2
		shape = cover.EvStoreBufferSaturated
	case slackFUs:
		none := base.Coverage.Count(cover.EvIssueFUExhausted) == 0
		for cl, row := range base.FUUsage {
			if none || row[len(row)-1] == 0 {
				big.FUs.Count[cl]++
			}
		}
		if big.FUs == fc.cfg.FUs {
			return false
		}
	}
	st := run(big)
	for cl, row := range st.FUUsage {
		if n := len(base.FUUsage[cl]); len(row) > n {
			if row[n] != 0 {
				t.Fatalf("added unit of class %d was used for %d cycles", cl, row[n])
			}
			st.FUUsage[cl] = row[:n]
		}
	}
	a, b := *base, *st
	a.Coverage, b.Coverage = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("slack %d: enlarged run differs:\n%+v\n%+v", fc.slack, a, b)
	}
	for _, ev := range cover.Events() {
		if ev != shape && base.Coverage.Count(ev) != st.Coverage.Count(ev) {
			t.Fatalf("slack %d: coverage event %v: %d vs %d", fc.slack, ev, base.Coverage.Count(ev), st.Coverage.Count(ev))
		}
	}
	return true
}

// FuzzVerify feeds randomly generated SPMD programs through the full
// differential pipeline (funcsim vs timing core) under seeded fault
// schedules, with per-cycle invariant checking on. Any divergence in
// final memory, any invariant violation, and any deadlock is a crash
// the fuzzer minimizes. The generator's seed is the fuzz input, so
// every interesting program is reproducible from the corpus entry.
// See buildFuzzCase for how the inputs select predictor, fetch policy,
// memory hierarchy, heterogeneous pairings, and the slack resource; a
// fault-free case with a slack resource also runs checkSlack.
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
		if fc.slack != slackNone && fc.cfg.Injector == nil {
			checkSlack(t, fc)
		}
	})
}

// TestFuzzCorpusSlackEntries pins the slack corpus entries to what they
// were chosen for: each decodes to its resource with the injector off,
// and its first run leaves the resource slack, so FuzzVerify compares
// an enlarged run. If progen or the input packing drifts, this fails
// instead of the entries silently skipping the comparison.
func TestFuzzCorpusSlackEntries(t *testing.T) {
	cases := []struct {
		name                          string
		progSeed                      int64
		faultSeed, threads, intensity uint64
		want                          slackKind
	}{
		{"seed-slack-su", 2, 1 << 20, 1, 0, slackSU},
		{"seed-slack-storebuf", 3, 2 << 20, 0, 0, slackStoreBuffer},
		{"seed-slack-fus", 4, 3 << 20, 3, 0, slackFUs},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			fc := buildFuzzCase(t, c.progSeed, c.faultSeed, c.threads, c.intensity)
			if fc.slack != c.want || fc.cfg.Injector != nil {
				t.Fatalf("entry decodes to slack %d with injector %v, want slack %d and none", fc.slack, fc.cfg.Injector, c.want)
			}
			if !checkSlack(t, fc) {
				t.Fatal("the first run ran short of the resource, so no enlarged run was compared")
			}
		})
	}
}
