package core

import (
	"fmt"
	"strings"
)

// FaultKind classifies a structured machine fault.
type FaultKind int

const (
	// FaultRunaway: the run exceeded Config.MaxCycles without finishing.
	FaultRunaway FaultKind = iota
	// FaultDeadlock: the forward-progress watchdog saw no commit and no
	// store drain for Config.Watchdog cycles while work was outstanding.
	FaultDeadlock
	// FaultInvariant: the per-cycle invariant checker (Config.
	// CheckInvariants) found the machine state inconsistent.
	FaultInvariant
	// FaultMem: a committed memory reference carried an illegal address
	// (outside its segment, or unaligned) — a program error, reported
	// with the faulting cycle, thread, and PC.
	FaultMem
	// FaultInternal: the model contradicted itself (e.g. a committed
	// store without a store-buffer entry). Always a simulator bug.
	FaultInternal
)

func (k FaultKind) String() string {
	switch k {
	case FaultRunaway:
		return "runaway"
	case FaultDeadlock:
		return "deadlock"
	case FaultInvariant:
		return "invariant violation"
	case FaultMem:
		return "memory fault"
	case FaultInternal:
		return "internal fault"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// ThreadState is one thread's architectural front-end state at the time
// of a fault.
type ThreadState struct {
	PC           uint32
	Halted       bool
	FetchStopped bool
}

// MachineError is the structured diagnostic Machine.Run returns instead
// of panicking: what went wrong, when, where in the pipeline, which
// thread and instruction (when attributable), and a dump of the
// scheduling unit, store buffer, and cache at the moment of the fault.
type MachineError struct {
	Kind   FaultKind
	Cycle  uint64
	Phase  string // pipeline phase that detected the fault
	Thread int    // offending thread, or -1 when not attributable
	PC     uint32 // offending instruction's PC, when known
	Addr   uint32 // faulting address, for memory faults
	Reason string // one-line description

	Threads  []ThreadState // per-thread PCs at the fault
	Snapshot string        // SU, store buffer, and cache dump
}

// Summary renders the one-line form (kind, cycle, phase, attribution).
func (e *MachineError) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: %v at cycle %d", e.Kind, e.Cycle)
	if e.Phase != "" {
		fmt.Fprintf(&b, " in %s", e.Phase)
	}
	if e.Thread >= 0 {
		fmt.Fprintf(&b, " (thread %d, pc %#x)", e.Thread, e.PC)
	}
	if e.Kind == FaultMem {
		fmt.Fprintf(&b, " addr %#x", e.Addr)
	}
	fmt.Fprintf(&b, ": %s", e.Reason)
	return b.String()
}

// Error renders the summary followed by the full state dump.
func (e *MachineError) Error() string {
	var b strings.Builder
	b.WriteString(e.Summary())
	for t, ts := range e.Threads {
		fmt.Fprintf(&b, "\n  thread %d: pc=%#x halted=%v stopped=%v",
			t, ts.PC, ts.Halted, ts.FetchStopped)
	}
	if e.Snapshot != "" {
		b.WriteString("\n")
		b.WriteString(e.Snapshot)
	}
	return b.String()
}

// failf records the machine's first fault; later faults are ignored
// (the machine is frozen once faulted, so they would be echoes). thread
// may be -1 when the fault is not attributable to one thread.
func (m *Machine) failf(kind FaultKind, phase string, thread int, pc uint32, format string, args ...any) {
	if m.fault != nil {
		return
	}
	e := &MachineError{
		Kind:    kind,
		Cycle:   m.now,
		Phase:   phase,
		Thread:  thread,
		PC:      pc,
		Reason:  fmt.Sprintf(format, args...),
		Threads: make([]ThreadState, m.cfg.Threads),
	}
	for t := 0; t < m.cfg.Threads; t++ {
		e.Threads[t] = ThreadState{PC: m.pc[t], Halted: m.halted[t], FetchStopped: m.fetchStopped[t]}
	}
	e.Snapshot = m.dump()
	m.fault = e
}

// failMem records a memory fault for entry e detected in the given
// pipeline phase.
func (m *Machine) failMem(phase string, e *suEntry, format string, args ...any) {
	if m.fault != nil {
		return
	}
	m.failf(FaultMem, phase, e.thread, e.pc, format, args...)
	m.fault.Addr = e.addr
}

// Err returns the machine's fault, or nil. Cycle-stepping callers check
// it between Cycle calls; Run surfaces it directly.
func (m *Machine) Err() error {
	if m.fault == nil {
		return nil
	}
	return m.fault
}

// FaultInjector perturbs timing-only microarchitectural state for
// robustness testing: every method must leave architectural results
// unchanged (memory and registers still match the functional reference
// simulator). Implementations must be deterministic pure functions of
// their arguments and safe for concurrent use by multiple machines —
// the experiment runner shares one injector across parallel cells.
// internal/fault provides the standard seeded implementation.
type FaultInjector interface {
	// CacheDelay is consulted once per architectural D-cache access
	// (first attempt only); a non-zero return forces the access to
	// behave as a miss that completes after that many cycles, without
	// touching line state.
	CacheDelay(now uint64, addr uint32, write bool) uint64
	// WritebackDelay is consulted once per completed execution; a
	// non-zero return holds the result off the writeback bus for that
	// many extra cycles.
	WritebackDelay(now uint64, tag uint64) uint64
	// FlipPredictor is consulted once per cycle; ok=true flips the
	// direction of one BTB entry's saturating counter (slot is reduced
	// modulo the BTB size).
	FlipPredictor(now uint64) (slot int, ok bool)
	// SpuriousSquash is consulted when a correctly predicted control
	// transfer resolves; true forces a same-thread squash-and-refetch
	// anyway, exactly as if it had mispredicted.
	SpuriousSquash(now uint64, tag uint64) bool
	// SyncDelay is consulted once per synchronization-controller
	// request (FLDW/FAI with a valid flag address); a non-zero return
	// holds the grant for that many cycles before the primitive may
	// execute — a delayed lock grant.
	SyncDelay(now uint64, addr uint32, rmw bool) uint64
	// SpuriousWakeup is consulted once per FLDW grant; true makes the
	// thread discard the delivered value and re-request the flag a few
	// cycles later (the re-read supplies the architectural result).
	SpuriousWakeup(now uint64, tag uint64) bool
	// FetchMisdecide is consulted once per successful fetch decision;
	// true redirects the slot to a different eligible thread than the
	// one the configured policy chose.
	FetchMisdecide(now uint64) bool
	// FetchBlock is consulted once per fetch cycle with a free latch;
	// true steals the slot — no thread fetches this cycle.
	FetchBlock(now uint64) bool
	// StoreBufferHold is consulted once per cycle; a positive return
	// makes that many store-buffer slots unavailable to newly issuing
	// stores for the cycle. The core caps the hold at StoreBuffer -
	// BlockSize so the deadlock-avoidance reservation argument (a block's
	// worth of slots can always be claimed) still holds.
	StoreBufferHold(now uint64) int
	// CommitWindowShrink is consulted once per commit cycle when the
	// flexible window exceeds one block; a positive return shrinks the
	// window by that many blocks for the cycle (floor 1 — bottom-block
	// commit stays available, so only timing can change).
	CommitWindowShrink(now uint64) int
	// String identifies the schedule (seed and rates) for experiment
	// cell IDs and diagnostics.
	String() string
}

// Injection channel names, the keys of Stats.Faults. One name per
// perturbation the injector can apply, so a run's statistics show
// exactly which mechanisms were attacked and how often.
const (
	ChanCacheDelay     = "cache-delay"     // forced D-cache miss delays
	ChanWritebackDelay = "writeback-delay" // results held off the writeback bus
	ChanPredictorFlip  = "predictor-flip"  // BTB counters inverted
	ChanSpuriousSquash = "spurious-squash" // correct CTs forced through recovery
	ChanSyncDelay      = "sync-delay"      // sync-controller grants delayed
	ChanSyncWakeup     = "sync-wakeup"     // FLDW grants spuriously woken
	ChanFetchMisdecide = "fetch-misdecide" // fetch-policy decisions overridden
	ChanFetchBlock     = "fetch-block"     // fetch slots stolen outright
	ChanStoreSlotHold  = "store-slot-hold" // store-buffer slots held from new stores
	ChanCommitShrink   = "commit-shrink"   // flexible-commit window shrunk for a cycle
)

// FaultChannels lists every injection channel name, sorted.
func FaultChannels() []string {
	return []string{
		ChanCacheDelay, ChanCommitShrink, ChanFetchBlock, ChanFetchMisdecide,
		ChanPredictorFlip, ChanSpuriousSquash, ChanStoreSlotHold,
		ChanSyncDelay, ChanSyncWakeup, ChanWritebackDelay,
	}
}

// FaultCounts counts injected perturbations per channel, keyed by the
// Chan* names above. The zero value is usable; Add allocates lazily, so
// a run without an injector carries a nil map.
type FaultCounts map[string]uint64

// Add records one injection on the named channel.
func (c *FaultCounts) Add(channel string) {
	if *c == nil {
		*c = FaultCounts{}
	}
	(*c)[channel]++
}

// Total sums the injections across all channels.
func (c FaultCounts) Total() uint64 {
	var n uint64
	for _, v := range c {
		n += v
	}
	return n
}
