package core

import (
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/cover"
	"repro/internal/isa"
	"repro/internal/syncctl"
)

// Stats aggregates everything the paper's figures and tables need.
type Stats struct {
	Cycles    uint64
	Committed uint64 // architecturally committed instructions
	Squashed  uint64 // instructions discarded by mispredict recovery

	CommittedByThread []uint64
	// HaltCycleByThread records the cycle each thread's HALT committed
	// (zero while the thread runs). In a heterogeneous mix the max over a
	// slot's thread group is that program's finish time, which the
	// mixstudy experiment compares against a solo run of the same
	// program for interference slowdown.
	HaltCycleByThread []uint64

	FetchedBlocks  uint64
	FetchedInsts   uint64 // valid instructions entering the latch
	FetchIdle      uint64 // cycles no thread fetched
	FetchThrottled uint64 // cycles ICountFeedback/ConfThrottle deliberately held fetch
	DispatchStall  uint64 // cycles the latch could not enter the SU

	SUStalls     uint64 // SU full and nothing committed (paper's SU stall)
	SUFullCycles uint64 // cycles the SU was full
	SUOccupancy  uint64 // sum of occupied entries, for average occupancy

	Mispredicts   uint64
	CommitsPerWin [BlockSize]uint64 // commits from window slot 0..3

	StoreBufferFull uint64 // issue attempts blocked by a full store buffer
	LoadBlocked     uint64 // load issue attempts blocked by older stores

	CondSwitches   uint64 // CondSwitch policy: thread rotations triggered
	ICacheStalls   uint64 // fetch cycles lost to instruction cache misses
	LoadsForwarded uint64 // loads satisfied by store-to-load forwarding

	FUUsage [isa.NumClasses][]uint64 // per-unit occupancy cycles

	Branch bpred.Stats
	Cache  cache.Stats
	ICache cache.Stats // zero-valued when the I-cache is perfect
	Sync   syncctl.Stats
	Faults FaultCounts // injected perturbations per channel (nil without an Injector)

	// Coverage is the run's microarchitectural event counters — the same
	// Set passed as Config.Coverage, or nil when coverage was disabled.
	Coverage *cover.Set

	// PhaseTime is the wall-clock breakdown per pipeline phase, all-zero
	// unless Config.PhaseTiming was set.
	PhaseTime PhaseTimes
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// AvgSUOccupancy returns the mean number of occupied SU entries.
func (s *Stats) AvgSUOccupancy() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.SUOccupancy) / float64(s.Cycles)
}

// FUUtilization returns the fraction of cycles unit `unit` of class `cl`
// was in use (Table 4's metric). Out-of-range classes or units — report
// code iterating past a smaller configuration — read as zero rather
// than panicking.
func (s *Stats) FUUtilization(cl isa.Class, unit int) float64 {
	if int(cl) >= len(s.FUUsage) || unit < 0 {
		return 0
	}
	if s.Cycles == 0 || unit >= len(s.FUUsage[cl]) {
		return 0
	}
	return float64(s.FUUsage[cl][unit]) / float64(s.Cycles)
}

// HaltCycle returns the cycle thread t committed its HALT. ok is false
// when t is out of range or the thread has not halted (no thread can
// halt at cycle 0 — the clock starts at 1 — so a zero record is
// unambiguous).
func (s *Stats) HaltCycle(t int) (uint64, bool) {
	if t < 0 || t >= len(s.HaltCycleByThread) {
		return 0, false
	}
	c := s.HaltCycleByThread[t]
	return c, c != 0
}

// Speedup computes the paper's speedup formula:
// (MTperf - STperf) / STperf with performance = 1/cycles. Zero cycle
// counts (an unfinished or faulted run) yield 0, never NaN or Inf.
func Speedup(multiCycles, singleCycles uint64) float64 {
	if multiCycles == 0 || singleCycles == 0 {
		return 0
	}
	mt := 1 / float64(multiCycles)
	st := 1 / float64(singleCycles)
	return (mt - st) / st
}
