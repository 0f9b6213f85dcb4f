package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/cover"
	"repro/internal/loader"
)

// The trace renderer, attached as the machine's sink, must print every
// stage with cycle-prefixed lines.
func TestTraceEvents(t *testing.T) {
	src := `
		main: addi r1, r0, 3
		l:    addi r1, r1, -1
		      bne  r1, r0, l
		      li   r2, out
		      sw   r1, 0(r2)
		      halt
		.data
		out: .word 0
	`
	m := newMachine(t, src, cfg1t())
	var b strings.Builder
	m.Observe(cover.NewTrace(&b, math.MaxUint64))
	run(t, m)
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	for _, stage := range []string{"fetch", "dispatch", "issue", "wb", "commit", "mispredict"} {
		if !strings.Contains(b.String(), "  "+stage+" ") {
			t.Errorf("trace has no %q events", stage)
		}
	}
	for _, l := range lines {
		var cycle uint64
		if _, err := fmt.Sscanf(l, "%d", &cycle); err != nil || cycle == 0 {
			t.Fatalf("trace line without a cycle: %q", l)
		}
	}
	if len(lines) < 20 {
		t.Errorf("suspiciously short trace: %d lines", len(lines))
	}
}

// ICount must starve a thread whose instructions pile up in the SU and
// feed the others, beating TrueRR on a lopsided workload.
func TestICountFavorsFastThreads(t *testing.T) {
	// Thread 0 repeatedly divides (slow, clogs the SU); threads 1..3 run
	// cheap loops.
	src := `
		main: tid  r1
		      beq  r1, r0, slow
		      addi r2, r0, 150
		f:    addi r2, r2, -1
		      bne  r2, r0, f
		      halt
		slow: addi r2, r0, 30
		      addi r3, r0, 7
		s:    div  r4, r2, r3
		      addi r2, r2, -1
		      bne  r2, r0, s
		      halt
	`
	cfg := DefaultConfig()
	cfg.Threads = 4
	cfg.MaxCycles = 500_000
	trueSt := run(t, newMachine(t, src, cfg))
	cfg.FetchPolicy = ICount
	icSt := run(t, newMachine(t, src, cfg))
	if icSt.Cycles > trueSt.Cycles {
		t.Errorf("ICount (%d cycles) slower than TrueRR (%d) on a lopsided workload",
			icSt.Cycles, trueSt.Cycles)
	}
}

// Store forwarding must satisfy an aliasing load without waiting for the
// drain, and count it.
func TestStoreForwarding(t *testing.T) {
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
	cfg := cfg1t()
	cfg.StoreForwarding = true
	m := newMachine(t, src, cfg)
	st := run(t, m)
	if got := m.Memory().LoadWord(loader.DataBase + 4); got != 42 {
		t.Errorf("out = %d, want 42", got)
	}
	if st.LoadsForwarded == 0 {
		t.Error("aliasing load was not forwarded")
	}
	// Forwarding must be at least as fast as the restricted policy.
	cfgR := cfg1t()
	rst := run(t, newMachine(t, src, cfgR))
	if st.Cycles > rst.Cycles {
		t.Errorf("forwarding (%d cycles) slower than restricted (%d)", st.Cycles, rst.Cycles)
	}
}

// A real instruction cache must charge stalls on cold fetches and still
// produce correct results.
func TestRealICache(t *testing.T) {
	cfg := cfg1t()
	ic := cache.Config{SizeBytes: 512, LineBytes: 32, Ways: 1, MissPenalty: 9}
	cfg.ICache = &ic
	src := `
		main: addi r1, r0, 20
		      addi r2, r0, 0
		l:    add  r2, r2, r1
		      addi r1, r1, -1
		      bne  r1, r0, l
		      li   r3, out
		      sw   r2, 0(r3)
		      halt
		.data
		out: .word 0
	`
	m := newMachine(t, src, cfg)
	st := run(t, m)
	if got := m.Memory().LoadWord(loader.DataBase); got != 210 {
		t.Errorf("out = %d, want 210", got)
	}
	if st.ICacheStalls == 0 {
		t.Error("cold instruction cache produced no stalls")
	}
	if st.ICache.Misses == 0 {
		t.Error("I-cache stats not collected")
	}
	// A perfect I-cache must be at least as fast.
	perfect := run(t, newMachine(t, src, cfg1t()))
	if perfect.Cycles > st.Cycles {
		t.Errorf("perfect I-cache (%d) slower than real (%d)", perfect.Cycles, st.Cycles)
	}
}

// Per-thread BTBs must keep per-thread outcomes correct (semantics
// already covered by differential tests; here: stats plumbing).
func TestPerThreadBTBStats(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threads = 3
	cfg.PerThreadBTB = true
	cfg.MaxCycles = 100_000
	src := `
		main: tid  r1
		      addi r2, r0, 30
		l:    addi r2, r2, -1
		      bne  r2, r0, l
		      halt
	`
	st := run(t, newMachine(t, src, cfg))
	if st.Branch.Predictions == 0 {
		t.Error("per-thread predictors reported no predictions")
	}
	if st.Branch.Accuracy() < 0.8 {
		t.Errorf("accuracy %.2f, want >80%% on a simple loop", st.Branch.Accuracy())
	}
}

// One-bit prediction must change timing on an alternating branch but
// keep semantics (the 2-bit counter tolerates single deviations).
func TestPredictorBitsAffectTiming(t *testing.T) {
	src := `
		main: addi r2, r0, 40
		      addi r3, r0, 0
		l:    andi r4, r2, 1
		      beq  r4, r0, even
		      addi r3, r3, 2
		      b    next
		even: addi r3, r3, 1
		next: addi r2, r2, -1
		      bne  r2, r0, l
		      halt
	`
	two := run(t, newMachine(t, src, cfg1t()))
	cfg := cfg1t()
	cfg.PredictorBits = 1
	one := run(t, newMachine(t, src, cfg))
	if one.Mispredicts == two.Mispredicts {
		t.Log("note: 1-bit and 2-bit mispredict counts equal on this pattern")
	}
	if one.Mispredicts == 0 || two.Mispredicts == 0 {
		t.Error("alternating branch never mispredicted")
	}
}

// Cache port limits must slow a load-parallel workload when the load
// units outnumber the ports.
func TestCachePortBottleneck(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("main: li r1, buf\n")
	for i := 0; i < 32; i++ {
		sb.WriteString("lw r" + itoa(2+i%8) + ", " + itoa(i*4) + "(r1)\n")
	}
	sb.WriteString("halt\n.data\nbuf: .space 256\n")
	cfg := cfg1t()
	cfg.FUs = EnhancedFUs() // two load units
	free := run(t, newMachine(t, sb.String(), cfg))
	cfg.Cache.Ports = 1
	capped := run(t, newMachine(t, sb.String(), cfg))
	if capped.Cycles <= free.Cycles {
		t.Errorf("1-port cache (%d cycles) not slower than unlimited (%d)", capped.Cycles, free.Cycles)
	}
	if capped.Cache.PortRejects == 0 {
		t.Error("port rejects not counted")
	}
}
