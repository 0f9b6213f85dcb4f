package core

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cover"
	"repro/internal/isa"
	"repro/internal/loader"
)

// Microarchitectural timing tests: small hand-written programs with
// exact expectations about pipeline behaviour.

// newMachine assembles src and returns an unstarted machine.
func newMachine(t *testing.T, src string, cfg Config) *Machine {
	t.Helper()
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	m, err := New(obj, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func run(t *testing.T, m *Machine) *Stats {
	t.Helper()
	st, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return st
}

func cfg1t() Config {
	cfg := DefaultConfig()
	cfg.Threads = 1
	cfg.MaxCycles = 100_000
	return cfg
}

// Back-to-back dependent ALU ops must flow at one per cycle with
// bypassing: the dependent chain dominates and each link costs exactly
// one cycle.
func TestDependentChainThroughput(t *testing.T) {
	chain := func(n int) string {
		var sb strings.Builder
		sb.WriteString("main: addi r1, r0, 1\n")
		for i := 0; i < n; i++ {
			sb.WriteString("addi r1, r1, 1\n")
		}
		sb.WriteString("halt\n")
		return sb.String()
	}
	short := run(t, newMachine(t, chain(8), cfg1t())).Cycles
	long := run(t, newMachine(t, chain(24), cfg1t())).Cycles
	if got := long - short; got != 16 {
		t.Errorf("16 extra chain links cost %d cycles, want 16 (1/cycle with bypassing)", got)
	}
}

// Without bypassing each link costs exactly two cycles.
func TestNoBypassChainThroughput(t *testing.T) {
	chain := func(n int) string {
		var sb strings.Builder
		sb.WriteString("main: addi r1, r0, 1\n")
		for i := 0; i < n; i++ {
			sb.WriteString("addi r1, r1, 1\n")
		}
		sb.WriteString("halt\n")
		return sb.String()
	}
	cfg := cfg1t()
	cfg.Bypassing = false
	short := run(t, newMachine(t, chain(8), cfg)).Cycles
	long := run(t, newMachine(t, chain(24), cfg)).Cycles
	if got := long - short; got != 32 {
		t.Errorf("16 extra chain links cost %d cycles, want 32 (2/cycle without bypassing)", got)
	}
}

// Independent ALU ops flow four at a time: bounded by the fetch width,
// not the ALU count.
func TestIndependentThroughput(t *testing.T) {
	prog := func(n int) string {
		var sb strings.Builder
		sb.WriteString("main: nop\n")
		regs := []string{"r1", "r2", "r3", "r4"}
		for i := 0; i < n; i++ {
			sb.WriteString("addi " + regs[i%4] + ", r0, 7\n")
		}
		sb.WriteString("halt\n")
		return sb.String()
	}
	short := run(t, newMachine(t, prog(16), cfg1t())).Cycles
	long := run(t, newMachine(t, prog(48), cfg1t())).Cycles
	if got := long - short; got != 8 {
		t.Errorf("32 extra independent ops cost %d cycles, want 8 (4-wide)", got)
	}
}

// An unpipelined divider serializes back-to-back divides; the pipelined
// multiplier does not.
func TestUnpipelinedDivider(t *testing.T) {
	divs := `
		main: addi r1, r0, 100
		      addi r2, r0, 3
		      div  r3, r1, r2
		      div  r4, r1, r2
		      div  r5, r1, r2
		      halt`
	muls := `
		main: addi r1, r0, 100
		      addi r2, r0, 3
		      mul  r3, r1, r2
		      mul  r4, r1, r2
		      mul  r5, r1, r2
		      halt`
	cfg := cfg1t()
	dc := run(t, newMachine(t, divs, cfg)).Cycles
	mc := run(t, newMachine(t, muls, cfg)).Cycles
	lat := cfg.FUs.Latency[isa.ClassIDiv]
	if dc < mc+2*lat-2 {
		t.Errorf("3 divides took %d cycles vs 3 muls %d; expected ~%d extra from serialization",
			dc, mc, 2*lat)
	}
}

// A mispredicted branch squashes only its own thread: the co-resident
// thread's instructions all commit.
func TestSelectiveSquash(t *testing.T) {
	// Thread 0 runs a data-dependent unpredictable branch pattern;
	// thread 1 runs straight-line code. Both must finish correctly.
	src := `
		main:  tid  r1
		       bne  r1, r0, t1code
		       ; thread 0: alternate taken/not-taken 20 times
		       addi r2, r0, 20
		       addi r3, r0, 0
		t0l:   andi r4, r2, 1
		       beq  r4, r0, t0even
		       addi r3, r3, 7
		       b    t0next
		t0even: addi r3, r3, 3
		t0next: addi r2, r2, -1
		       bne  r2, r0, t0l
		       li   r5, out0
		       sw   r3, 0(r5)
		       halt
		t1code: addi r6, r0, 11
		       addi r6, r6, 11
		       addi r6, r6, 11
		       li   r7, out1
		       sw   r6, 0(r7)
		       halt
		.data
		out0: .word 0
		out1: .word 0
	`
	cfg := DefaultConfig()
	cfg.Threads = 2
	cfg.MaxCycles = 100_000
	m := newMachine(t, src, cfg)
	st := run(t, m)
	if got := m.Memory().LoadWord(loader.DataBase); got != 10*7+10*3 {
		t.Errorf("thread 0 result = %d, want 100", got)
	}
	if got := m.Memory().LoadWord(loader.DataBase + 4); got != 33 {
		t.Errorf("thread 1 result = %d, want 33", got)
	}
	if st.Mispredicts == 0 {
		t.Error("alternating branch produced no mispredicts")
	}
	if st.Squashed == 0 {
		t.Error("mispredicts squashed nothing")
	}
}

// HALT predecode stops fetch; a squashed HALT resumes it.
func TestSquashedHaltResumesFetch(t *testing.T) {
	// The branch is taken (r1 == 0 initially... set r1 = 1 so bne taken)
	// but predicted not-taken on first sight, so the HALT on the
	// fall-through path is fetched speculatively, then squashed.
	src := `
		main: addi r1, r0, 1
		      bne  r1, r0, cont
		      halt
		cont: addi r2, r0, 5
		      li   r3, out
		      sw   r2, 0(r3)
		      halt
		.data
		out: .word 0
	`
	m := newMachine(t, src, cfg1t())
	st := run(t, m)
	if got := m.Memory().LoadWord(loader.DataBase); got != 5 {
		t.Errorf("out = %d, want 5 (wrong-path HALT must not stick)", got)
	}
	if st.Mispredicts != 1 {
		t.Errorf("mispredicts = %d, want exactly 1", st.Mispredicts)
	}
}

// Flexible commit lets a ready younger block of another thread pass a
// stalled older block (the paper's Figure 2 scenario); LowestOnly does
// not, and stalls more.
func TestFlexibleCommitBeatsLowestOnly(t *testing.T) {
	// Thread 0 stalls on a long divide chain; thread 1 runs many cheap
	// independent ops behind it.
	src := `
		main:  tid  r1
		       bne  r1, r0, fast
		       addi r2, r0, 100
		       addi r3, r0, 3
		       div  r4, r2, r3
		       div  r4, r4, r3
		       div  r4, r4, r3
		       div  r4, r4, r3
		       halt
		fast:  addi r5, r0, 1
		       addi r6, r0, 2
		       addi r7, r0, 3
		       addi r8, r0, 4
		       addi r5, r5, 1
		       addi r6, r6, 1
		       addi r7, r7, 1
		       addi r8, r8, 1
		       addi r5, r5, 1
		       addi r6, r6, 1
		       addi r7, r7, 1
		       addi r8, r8, 1
		       halt
	`
	flex := DefaultConfig()
	flex.Threads = 2
	flex.MaxCycles = 100_000
	low := flex
	low.CommitPolicy = LowestOnly
	low.CommitWindow = 1
	fst := run(t, newMachine(t, src, flex))
	lst := run(t, newMachine(t, src, low))
	if fst.Cycles >= lst.Cycles {
		t.Errorf("flexible (%d cycles) not faster than lowest-only (%d)", fst.Cycles, lst.Cycles)
	}
	if fst.CommitsPerWin[1]+fst.CommitsPerWin[2]+fst.CommitsPerWin[3] == 0 {
		t.Error("flexible commit never used a non-bottom window slot")
	}
	if lst.CommitsPerWin[1] != 0 {
		t.Error("lowest-only committed from a non-bottom slot")
	}
}

// A thread's own blocks can never leapfrog each other: per-thread
// commit order is program order even under flexible commit.
func TestFlexibleCommitSameThreadOrder(t *testing.T) {
	// Single thread: flexible commit must behave exactly like
	// lowest-only (identical cycles).
	src := `
		main: addi r1, r0, 30
		l:    mul  r2, r1, r1
		      addi r1, r1, -1
		      bne  r1, r0, l
		      halt
	`
	flex := cfg1t()
	low := cfg1t()
	low.CommitPolicy = LowestOnly
	low.CommitWindow = 1
	fc := run(t, newMachine(t, src, flex)).Cycles
	lc := run(t, newMachine(t, src, low)).Cycles
	if fc != lc {
		t.Errorf("single-thread flexible (%d) differs from lowest-only (%d)", fc, lc)
	}
}

// Loads must not pass an older same-thread store to the same address;
// with the store in the same commit block the value forwards once the
// data is ready (the load still blocks while it is not).
func TestRestrictedLoadStorePolicy(t *testing.T) {
	src := `
		main: li   r1, slot
		      addi r2, r0, 42
		      sw   r2, 0(r1)
		      lw   r3, 0(r1)
		      li   r4, out
		      sw   r3, 0(r4)
		      halt
		.data
		slot: .word 7
		out:  .word 0
	`
	m := newMachine(t, src, cfg1t())
	st := run(t, m)
	if got := m.Memory().LoadWord(loader.DataBase + 4); got != 42 {
		t.Errorf("out = %d, want 42 (load must observe the older store)", got)
	}
	if st.LoadBlocked == 0 {
		t.Error("aliasing load was never blocked (forwarding is not modeled)")
	}
}

// A load to a different address passes older stores freely once their
// addresses are known.
func TestLoadDisambiguation(t *testing.T) {
	src := `
		main: li   r1, a
		      li   r2, bq
		      addi r3, r0, 1
		      sw   r3, 0(r1)
		      lw   r4, 0(r2)
		      li   r5, out
		      sw   r4, 0(r5)
		      halt
		.data
		a:   .word 0
		bq:  .word 9
		out: .word 0
	`
	m := newMachine(t, src, cfg1t())
	run(t, m)
	if got := m.Memory().LoadWord(m.memory.LoadWord(0)&0 + loader.DataBase + 8); got != 9 {
		t.Errorf("out = %d, want 9", got)
	}
}

// MaskedRR masks the thread stalling the bottom block; TrueRR wastes
// the slot of an ineligible thread.
func TestMaskedRROutfetchesTrueRR(t *testing.T) {
	// Thread 0 halts immediately; the others do real work. TrueRR keeps
	// giving thread 0 a fetch slot (wasted); MaskedRR does not waste
	// slots on stopped threads either way, but TrueRR must show fetch
	// idle cycles.
	src := `
		main: tid  r1
		      beq  r1, r0, quit
		      addi r2, r0, 200
		l:    addi r2, r2, -1
		      bne  r2, r0, l
		quit: halt
	`
	cfg := DefaultConfig()
	cfg.Threads = 4
	cfg.MaxCycles = 100_000
	trueSt := run(t, newMachine(t, src, cfg))
	cfg.FetchPolicy = MaskedRR
	maskSt := run(t, newMachine(t, src, cfg))
	if trueSt.FetchIdle == 0 {
		t.Error("TrueRR reported no idle fetch slots despite a halted thread")
	}
	if maskSt.Cycles > trueSt.Cycles {
		t.Errorf("MaskedRR (%d) slower than TrueRR (%d) on a workload with a dead thread",
			maskSt.Cycles, trueSt.Cycles)
	}
}

// CondSwitch rotates on divide and sync triggers and counts switches.
func TestCondSwitchRotation(t *testing.T) {
	src := `
		main: addi r1, r0, 60
		      addi r2, r0, 7
		l:    div  r3, r1, r2
		      addi r1, r1, -1
		      bne  r1, r0, l
		      halt
	`
	cfg := DefaultConfig()
	cfg.Threads = 2
	cfg.FetchPolicy = CondSwitch
	cfg.MaxCycles = 200_000
	st := run(t, newMachine(t, src, cfg))
	if st.CondSwitches == 0 {
		t.Error("divides triggered no conditional switches")
	}
}

// Fetch blocks are aligned: a branch target in the middle of a block
// wastes the leading slots, visible in FetchedInsts/FetchedBlocks.
func TestFetchAlignmentWaste(t *testing.T) {
	// The loop back-edge targets instruction index 2 (mid-block), so
	// every re-fetch of the loop head wastes two slots.
	src := `
		main: addi r1, r0, 50
		      nop
		l:    addi r1, r1, -1
		      bne  r1, r0, l
		      halt
	`
	st := run(t, newMachine(t, src, cfg1t()))
	avg := float64(st.FetchedInsts) / float64(st.FetchedBlocks)
	if avg > 2.5 {
		t.Errorf("average valid insts per block = %.2f, expected ~2 (mid-block target)", avg)
	}
}

// Scoreboard mode stalls dispatch on WAW; renaming does not.
func TestScoreboardWAWStall(t *testing.T) {
	// Repeated writes to r1 with long-latency producers.
	src := `
		main: addi r2, r0, 100
		      addi r3, r0, 7
		      div  r1, r2, r3
		      div  r1, r2, r3
		      div  r1, r2, r3
		      div  r1, r2, r3
		      halt
	`
	ren := cfg1t()
	sb := cfg1t()
	sb.Renaming = false
	rc := run(t, newMachine(t, src, ren)).Cycles
	sc := run(t, newMachine(t, src, sb)).Cycles
	// Both serialize on the single unpipelined divider, but the
	// scoreboard additionally stalls dispatch, so it must not be faster.
	if sc < rc {
		t.Errorf("scoreboard (%d cycles) faster than renaming (%d)", sc, rc)
	}
	// A cross-block WAW behind a long-latency producer must open a gap:
	// the scoreboard stalls dispatch of the second writer's block (and
	// everything behind it) until the divide writes back, while renaming
	// lets the independent tail proceed.
	src2 := `
		main: addi r2, r0, 100
		      addi r3, r0, 7
		      div  r5, r2, r3
		      nop
		      mul  r5, r2, r3
		      addi r6, r0, 1
		      addi r7, r0, 1
		      addi r8, r0, 1
		      addi r6, r6, 1
		      addi r7, r7, 1
		      addi r8, r8, 1
		      addi r6, r6, 1
		      addi r7, r7, 1
		      addi r8, r8, 1
		      halt
	`
	rc2 := run(t, newMachine(t, src2, ren)).Cycles
	sc2 := run(t, newMachine(t, src2, sb)).Cycles
	if sc2 <= rc2 {
		t.Errorf("WAW on r5: scoreboard (%d) should be slower than renaming (%d)", sc2, rc2)
	}
}

// The store buffer capacity limit is enforced and visible in stats,
// and every refused issue attempt is counted. After a cycle's first
// store-buffer refusal the issue scan refuses every younger store in
// bulk, so the counts are pinned exactly: each refused store must
// still count once, and no other class's refusals may move.
func TestStoreBufferPressure(t *testing.T) {
	cases := []struct {
		threads int
		want    refusalCounts
	}{
		{1, refusalCounts{storeFull: 534, loadBlocked: 0, covStoreFull: 534, covFUExhausted: 14}},
		{2, refusalCounts{storeFull: 1464, loadBlocked: 251, covStoreFull: 1464, covFUExhausted: 26}},
	}
	for _, tc := range cases {
		t.Run(itoa(tc.threads)+"t", func(t *testing.T) {
			cfg := cfg1t()
			cfg.Threads = tc.threads
			cfg.StoreBuffer = 4
			cfg.Coverage = cover.NewSet()
			st := run(t, newMachine(t, storePressureSource(tc.threads), cfg))
			if st.StoreBufferFull == 0 {
				t.Error("24 back-to-back stores never filled a 4-entry store buffer")
			}
			got := refusalCounts{
				storeFull:      st.StoreBufferFull,
				loadBlocked:    st.LoadBlocked,
				covStoreFull:   st.Coverage.Count(cover.EvStoreBufferFull),
				covFUExhausted: st.Coverage.Count(cover.EvIssueFUExhausted),
			}
			if got != tc.want {
				t.Errorf("refusals %+v, want %+v", got, tc.want)
			}
		})
	}
}

// refusalCounts are the issue-refusal tallies a run reports.
type refusalCounts struct {
	storeFull, loadBlocked, covStoreFull, covFUExhausted uint64
}

// storePressureSource is 24 back-to-back stores per thread into the
// thread's own 128-byte window, each behind the ALU op making its
// data. With two threads it ends in eight loads of the words its last
// eight stores wrote: under the restricted load/store policy each waits
// for its store to drain, while stores of both threads back up across
// several blocks.
func storePressureSource(threads int) string {
	var sb strings.Builder
	sb.WriteString("main: li r1, buf\n")
	if threads > 1 {
		sb.WriteString("tid r3\nslli r3, r3, 7\nadd r1, r1, r3\n")
	}
	for i := 0; i < 24; i++ {
		sb.WriteString("addi r2, r0, " + itoa(i+1) + "\n")
		sb.WriteString("sw r2, " + itoa(i*4) + "(r1)\n")
	}
	if threads > 1 {
		for i := 0; i < 8; i++ {
			sb.WriteString("lw r" + itoa(5+i) + ", " + itoa((16+i)*4) + "(r1)\n")
		}
	}
	sb.WriteString("halt\n.data\nbuf: .space " + itoa(128*threads) + "\n")
	return sb.String()
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// JALR is predicted via the BTB: the second call through the same
// register target must not mispredict.
func TestJALRPrediction(t *testing.T) {
	src := `
		main:  li   r10, target
		       addi r5, r0, 6
		loop:  jalr r1, r10, 0
		       addi r5, r5, -1
		       bne  r5, r0, loop
		       halt
		target: addi r6, r6, 1
		       jalr r0, r1, 0
	`
	st := run(t, newMachine(t, src, cfg1t()))
	// First jalr and first return mispredict (BTB cold); later ones
	// should train. Allow a little slack for the two distinct return
	// sites sharing no BTB pressure.
	if st.Mispredicts > 6 {
		t.Errorf("mispredicts = %d; BTB should learn the constant jalr targets", st.Mispredicts)
	}
	if st.Mispredicts == 0 {
		t.Error("cold BTB produced no mispredicts at all")
	}
}

// SU stalls are counted when the unit is full and nothing commits.
func TestSUStallAccounting(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("main: addi r2, r0, 100\naddi r3, r0, 7\ndiv r1, r2, r3\n")
	for i := 0; i < 40; i++ {
		sb.WriteString("add r4, r1, r1\n") // all depend on the divide
	}
	sb.WriteString("halt\n")
	st := run(t, newMachine(t, sb.String(), cfg1t()))
	if st.SUStalls == 0 {
		t.Error("a full SU behind a divide produced no SU stalls")
	}
}

// Register state is committed: after a run, Reg returns architectural
// values matching program semantics.
func TestArchitecturalRegisterState(t *testing.T) {
	m := newMachine(t, `
		main: addi r1, r0, 5
		      slli r2, r1, 3
		      sub  r3, r2, r1
		      halt
	`, cfg1t())
	run(t, m)
	if m.Reg(0, 1) != 5 || m.Reg(0, 2) != 40 || m.Reg(0, 3) != 35 {
		t.Errorf("regs = %d, %d, %d; want 5, 40, 35", m.Reg(0, 1), m.Reg(0, 2), m.Reg(0, 3))
	}
	if m.Reg(0, 0) != 0 {
		t.Error("r0 must read zero")
	}
}

// Commit-window histogram: with one thread, every commit is from slot 0.
func TestCommitWindowHistogramSingleThread(t *testing.T) {
	st := run(t, newMachine(t, `
		main: addi r1, r0, 10
		l:    addi r1, r1, -1
		      bne  r1, r0, l
		      halt
	`, cfg1t()))
	for i := 1; i < BlockSize; i++ {
		if st.CommitsPerWin[i] != 0 {
			t.Errorf("single thread committed from window slot %d", i)
		}
	}
}

// The runaway guard must fire with a useful error instead of hanging.
func TestRunawayGuard(t *testing.T) {
	src := "main: b main"
	cfg := cfg1t()
	cfg.MaxCycles = 500
	m := newMachine(t, src, cfg)
	if _, err := m.Run(); err == nil {
		t.Fatal("infinite loop did not trip the cycle guard")
	} else if !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("unexpected guard error: %v", err)
	}
}

// Config validation must reject each malformed field.
func TestConfigValidation(t *testing.T) {
	mods := map[string]func(*Config){
		"threads":     func(c *Config) { c.Threads = 0 },
		"manyThreads": func(c *Config) { c.Threads = 99 },
		"su":          func(c *Config) { c.SUEntries = 13 },
		"issue":       func(c *Config) { c.IssueWidth = 0 },
		"wb":          func(c *Config) { c.WritebackWidth = 0 },
		"sbuf":        func(c *Config) { c.StoreBuffer = 0 },
		"btb":         func(c *Config) { c.BTBEntries = 100 },
		"window":      func(c *Config) { c.CommitWindow = 0 },
		"lowestWin":   func(c *Config) { c.CommitPolicy = LowestOnly; c.CommitWindow = 4 },
		"fuCount":     func(c *Config) { c.FUs.Count[0] = 0 },
		"fuLatency":   func(c *Config) { c.FUs.Latency[0] = 0 },
	}
	for name, mod := range mods {
		cfg := DefaultConfig()
		mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}
