package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cover"
	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/loader"
)

// Structured fault diagnostics: a wedged or misbehaving machine must
// return a MachineError that names the kind, cycle, thread, and PC —
// never a raw panic, and never a silent runaway to MaxCycles.

// deadlockSrc wedges the store buffer by construction: block 0 sets up
// registers (li expands to lui+ori, so the four stores land exactly in
// block 1), then block 1 is four stores. With the store buffer shrunk
// below BlockSize, the block can never issue all its stores (slots free
// only at drain, drain happens only after commit, commit needs the
// whole block done), so the machine makes no progress forever.
const deadlockSrc = `
main: li   r1, xs
      addi r2, r0, 7
      addi r3, r0, 9
      sw   r2, 0(r1)
      sw   r2, 4(r1)
      sw   r2, 8(r1)
      sw   r2, 12(r1)
      halt
.data
xs: .space 16
`

func TestWatchdogDeadlockDiagnostic(t *testing.T) {
	cfg := cfg1t()
	cfg.MaxCycles = 1_000_000
	cfg.Watchdog = 200
	m := newMachine(t, deadlockSrc, cfg)
	// Validate rejects StoreBuffer < BlockSize, so wedge the machine by
	// mutating the built config directly — exactly the kind of internal
	// inconsistency the watchdog exists to catch.
	m.cfg.StoreBuffer = 2

	_, err := m.Run()
	if err == nil {
		t.Fatal("wedged machine ran to completion")
	}
	var me *MachineError
	if !errors.As(err, &me) {
		t.Fatalf("error is %T, want *MachineError: %v", err, err)
	}
	if me.Kind != FaultDeadlock {
		t.Fatalf("kind = %v, want deadlock: %v", me.Kind, me)
	}
	if me.Thread != 0 {
		t.Errorf("deadlock attributed to thread %d, want 0", me.Thread)
	}
	if me.Cycle > 10_000 {
		t.Errorf("watchdog fired at cycle %d; limit 200 should trip promptly", me.Cycle)
	}
	if !strings.Contains(me.Reason, "no commit or store drain") {
		t.Errorf("reason %q does not describe the stall", me.Reason)
	}
	if !strings.Contains(err.Error(), "storeBuf") {
		t.Errorf("diagnostic lacks the store buffer dump:\n%v", err)
	}
	if got := m.Err(); got != err {
		t.Errorf("Err() = %v, want the Run error", got)
	}
}

// The same wedge without a watchdog must still terminate — as a
// runaway at MaxCycles — rather than spinning forever.
func TestNoWatchdogRunsToRunaway(t *testing.T) {
	cfg := cfg1t()
	cfg.MaxCycles = 3_000
	cfg.Watchdog = NoWatchdog
	m := newMachine(t, deadlockSrc, cfg)
	m.cfg.StoreBuffer = 2

	_, err := m.Run()
	var me *MachineError
	if !errors.As(err, &me) {
		t.Fatalf("error is %T, want *MachineError: %v", err, err)
	}
	if me.Kind != FaultRunaway {
		t.Fatalf("kind = %v, want runaway: %v", me.Kind, me)
	}
}

func TestCommittedBadLoadIsMemFault(t *testing.T) {
	src := `
main: li   r1, xs
      lw   r2, 1(r1)
      halt
.data
xs: .word 5
`
	m := newMachine(t, src, cfg1t())
	_, err := m.Run()
	var me *MachineError
	if !errors.As(err, &me) {
		t.Fatalf("error is %T, want *MachineError: %v", err, err)
	}
	if me.Kind != FaultMem {
		t.Fatalf("kind = %v, want memory fault: %v", me.Kind, me)
	}
	if me.Thread != 0 {
		t.Errorf("fault attributed to thread %d, want 0", me.Thread)
	}
	if (me.Addr & 3) != 1 {
		t.Errorf("fault addr %#x, want the unaligned xs+1", me.Addr)
	}
	if me.PC == 0 {
		t.Error("fault PC not recorded")
	}
	if me.Phase != "commit" {
		t.Errorf("fault phase %q, want commit (loads stay speculative until commit)", me.Phase)
	}
}

func TestCommittedBadStoreIsMemFault(t *testing.T) {
	src := `
main: li   r1, xs
      addi r2, r0, 3
      sw   r2, 2(r1)
      halt
.data
xs: .word 0
`
	m := newMachine(t, src, cfg1t())
	_, err := m.Run()
	var me *MachineError
	if !errors.As(err, &me) {
		t.Fatalf("error is %T, want *MachineError: %v", err, err)
	}
	if me.Kind != FaultMem {
		t.Fatalf("kind = %v, want memory fault: %v", me.Kind, me)
	}
	if (me.Addr & 3) != 2 {
		t.Errorf("fault addr %#x, want the unaligned xs+2", me.Addr)
	}
}

// A squashed bad-address reference on a mispredicted path must NOT
// fault: badAddr is speculative state until commit.
func TestSquashedBadAddressDoesNotFault(t *testing.T) {
	src := `
main: li   r1, xs
      addi r2, r0, 1
      beq  r2, r2, ok
      lw   r3, 1(r1)
      lw   r3, 2(r1)
      lw   r3, 3(r1)
ok:   halt
.data
xs: .word 5
`
	m := newMachine(t, src, cfg1t())
	if _, err := m.Run(); err != nil {
		t.Fatalf("speculative bad address faulted: %v", err)
	}
}

// The runaway guard also produces a structured error with thread
// attribution (an infinite loop is the classic cause).
func TestRunawayDiagnostic(t *testing.T) {
	src := `
main: b main
      halt
`
	cfg := cfg1t()
	cfg.MaxCycles = 2_000
	m := newMachine(t, src, cfg)
	_, err := m.Run()
	var me *MachineError
	if !errors.As(err, &me) {
		t.Fatalf("error is %T, want *MachineError: %v", err, err)
	}
	if me.Kind != FaultRunaway {
		t.Fatalf("kind = %v, want runaway", me.Kind)
	}
	if me.Cycle < 2_000 {
		t.Errorf("runaway reported at cycle %d, want >= MaxCycles", me.Cycle)
	}
	if len(me.Threads) != 1 {
		t.Errorf("thread states %d, want 1", len(me.Threads))
	}
}

// TestSoloMixUnderFaultsMatchesHomogeneous: an explicit one-slot
// Config.Mix is the homogeneous machine, also under a fault schedule
// whose sync channels consult the controller for every flag address.
// Stats — faults and coverage included — must match field for field.
func TestSoloMixUnderFaultsMatchesHomogeneous(t *testing.T) {
	b, err := kernels.Get("Water")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := b.Build(kernels.Params{Threads: 4, Scale: kernels.Small})
	if err != nil {
		t.Fatal(err)
	}
	run := func(mix bool) *Stats {
		cfg := DefaultConfig()
		cfg.Threads = 4
		cfg.Coverage = cover.NewSet()
		inj, err := fault.ParseSpec("sync-storm,seed=11")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Injector = inj
		o := obj
		if mix {
			cfg.Mix, o = loader.SoloMix(obj, 4), nil
		}
		m, err := New(o, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatalf("mix=%v: %v", mix, err)
		}
		return st
	}
	homo, solo := run(false), run(true)
	if homo.Sync.DelayedGrants == 0 {
		t.Fatal("fault schedule delayed no sync grant")
	}
	if !reflect.DeepEqual(homo, solo) {
		t.Errorf("one-slot mix diverges from the homogeneous run:\nhomogeneous: %+v\none-slot:    %+v", homo, solo)
	}
}
