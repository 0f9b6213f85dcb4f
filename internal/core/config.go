// Package core implements the cycle-level model of the multithreaded
// SDSP superscalar processor: a 4-wide fetch/decode front end with
// per-thread program counters, a shared FIFO scheduling unit (combined
// reorder buffer + instruction window) with globally unique renaming
// tags, thread-blind oldest-first issue to shared functional units,
// selective same-thread squash on mispredicts, and Flexible Result
// Commit from the bottom blocks of the scheduling unit.
package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cover"
	"repro/internal/isa"
	"repro/internal/loader"
)

// FetchPolicy selects which thread fetches each cycle (paper §5.1).
type FetchPolicy int

const (
	// TrueRR allocates one fetch cycle to each thread in strict cyclic
	// order via a modulo-N counter that advances every clock tick,
	// irrespective of thread state. The simplest policy to build, and the
	// paper's default.
	TrueRR FetchPolicy = iota
	// MaskedRR is round robin that skips ("masks") a thread while it
	// fails to commit from the lowermost block of the reorder buffer.
	MaskedRR
	// CondSwitch keeps fetching one thread until the decoder sees a
	// long-latency trigger (integer divide, FP multiply/divide, or a
	// synchronization primitive), then rotates to the next thread.
	CondSwitch
	// ICount is the "judicious fetch policy" the paper sketches as
	// future work (§6.1 #3): fetch for the eligible thread with the
	// fewest instructions resident in the scheduling unit, slowing down
	// fetch for threads in regions of low execution rate. (The same idea
	// later became Tullsen's ICOUNT.)
	ICount
	// ICountFeedback is ICount with backend-pressure feedback: when the
	// scheduling unit is more than three-quarters full the frontend holds
	// fetch entirely for a cycle instead of picking a thread, letting the
	// backend drain before more instructions pile in.
	ICountFeedback
	// ConfThrottle is a confidence-throttled variable fetch rate: a small
	// saturating meter tracks recent branch-prediction confidence, and
	// fetch slows to every other cycle (low meter) or every fourth cycle
	// (very low) while predictions are unreliable, spending fewer wasted
	// slots on likely-wrong paths. Thread choice is TrueRR's rotation.
	ConfThrottle
)

func (p FetchPolicy) String() string {
	switch p {
	case TrueRR:
		return "TrueRR"
	case MaskedRR:
		return "MaskedRR"
	case CondSwitch:
		return "CondSwitch"
	case ICount:
		return "ICount"
	case ICountFeedback:
		return "ICountFeedback"
	case ConfThrottle:
		return "ConfThrottle"
	}
	return fmt.Sprintf("FetchPolicy(%d)", int(p))
}

// ParseFetchPolicy maps a CLI spelling to a fetch policy.
func ParseFetchPolicy(s string) (FetchPolicy, error) {
	switch s {
	case "truerr", "rr":
		return TrueRR, nil
	case "masked", "maskedrr":
		return MaskedRR, nil
	case "cswitch", "condswitch":
		return CondSwitch, nil
	case "icount":
		return ICount, nil
	case "icount-fb", "icountfb", "icountfeedback":
		return ICountFeedback, nil
	case "confthrottle", "conf-throttle", "conf":
		return ConfThrottle, nil
	}
	return 0, fmt.Errorf("unknown fetch policy %q (truerr, masked, cswitch, icount, icount-fb, confthrottle)", s)
}

// PredictorKind selects the branch predictor implementation. The zero
// value is the paper's 2-bit counter + shared BTB, so existing
// configurations are unchanged.
type PredictorKind int

const (
	// PredTwoBit is the paper's n-bit saturating counter in the BTB
	// (2-bit by default; Config.PredictorBits selects the width).
	PredTwoBit PredictorKind = iota
	// PredGshare indexes a pattern history table with PC XOR a global
	// history register shared by all threads.
	PredGshare
	// PredGshareThread is gshare with a private history register per
	// thread: no cross-thread history interleaving, slower warm-up.
	PredGshareThread
	// PredTAGE is a small TAgged GEometric-history predictor: a bimodal
	// base table plus four tagged components at history lengths 5/10/20/40.
	PredTAGE
)

func (k PredictorKind) String() string {
	switch k {
	case PredTwoBit:
		return "2bit"
	case PredGshare:
		return "gshare"
	case PredGshareThread:
		return "gshare-pt"
	case PredTAGE:
		return "tage"
	}
	return fmt.Sprintf("PredictorKind(%d)", int(k))
}

// ParsePredictor maps a CLI spelling to a predictor kind.
func ParsePredictor(s string) (PredictorKind, error) {
	switch s {
	case "2bit", "twobit", "nbit":
		return PredTwoBit, nil
	case "gshare":
		return PredGshare, nil
	case "gshare-pt", "gsharept", "gshare-thread", "gsharethread":
		return PredGshareThread, nil
	case "tage":
		return PredTAGE, nil
	}
	return 0, fmt.Errorf("unknown predictor %q (2bit, gshare, gshare-pt, tage)", s)
}

// CommitPolicy selects the result-commit scheme (paper §5.6).
type CommitPolicy int

const (
	// FlexibleCommit examines the bottom CommitWindow blocks and commits
	// the lowest ready block whose thread differs from every uncommitted
	// block below it.
	FlexibleCommit CommitPolicy = iota
	// LowestOnly commits only from the lowermost block, as in a
	// conventional single-threaded reorder buffer.
	LowestOnly
)

func (p CommitPolicy) String() string {
	switch p {
	case FlexibleCommit:
		return "Flexible"
	case LowestOnly:
		return "LowestOnly"
	}
	return fmt.Sprintf("CommitPolicy(%d)", int(p))
}

// FUConfig sizes the functional unit pools (paper Table 1). Latencies
// are substitutions documented in DESIGN.md: the OCR of the paper lost
// the original numbers, so era-typical values are used.
type FUConfig struct {
	Count     [isa.NumClasses]int
	Latency   [isa.NumClasses]uint64
	Pipelined [isa.NumClasses]bool
}

// DefaultFUs is the paper's default configuration: four integer ALUs and
// one of everything else, plus the FP units the paper adds for its
// benchmarks and a 2-port synchronization controller.
func DefaultFUs() FUConfig {
	var c FUConfig
	set := func(cl isa.Class, n int, lat uint64, pipe bool) {
		c.Count[cl], c.Latency[cl], c.Pipelined[cl] = n, lat, pipe
	}
	set(isa.ClassALU, 4, 1, true)
	set(isa.ClassIMul, 1, 3, true)
	set(isa.ClassIDiv, 1, 10, false)
	set(isa.ClassLoad, 1, 2, true) // cache-hit latency; misses add refill time
	set(isa.ClassStore, 1, 1, true)
	set(isa.ClassCT, 1, 1, true)
	set(isa.ClassFPAdd, 1, 2, true)
	set(isa.ClassFPMul, 1, 3, true)
	set(isa.ClassFPDiv, 1, 10, false)
	set(isa.ClassSync, 2, 3, true)
	return c
}

// EnhancedFUs is the paper's "++" configuration: two of each scarce unit
// and six ALUs.
func EnhancedFUs() FUConfig {
	c := DefaultFUs()
	c.Count[isa.ClassALU] = 6
	c.Count[isa.ClassIMul] = 2
	c.Count[isa.ClassIDiv] = 2
	c.Count[isa.ClassLoad] = 2
	c.Count[isa.ClassStore] = 2
	c.Count[isa.ClassFPAdd] = 2
	c.Count[isa.ClassFPMul] = 2
	c.Count[isa.ClassFPDiv] = 2
	return c
}

// BlockSize is the fetch/decode/commit granularity: four contiguous
// instructions, fixed by the SDSP design.
const BlockSize = 4

// Config assembles a full machine configuration (paper Table 2).
type Config struct {
	Threads      int          // simultaneously resident threads (1..6 in the paper)
	FetchPolicy  FetchPolicy  // TrueRR by default
	CommitPolicy CommitPolicy // Flexible by default
	CommitWindow int          // blocks examined by flexible commit (4)

	SUEntries      int // scheduling unit depth in instructions (32)
	IssueWidth     int // instructions issued per cycle (8)
	WritebackWidth int // results written back per cycle (8)
	StoreBuffer    int // store buffer entries (8)

	BTBEntries    int  // branch target buffer entries (power of two)
	PredictorBits int  // saturating counter width; 0 means the paper's 2
	PerThreadBTB  bool // ablation: private predictor+BTB per thread (paper shares one)
	// Predictor selects the direction predictor implementation; the zero
	// value (PredTwoBit) is the paper's. PredictorBits applies only to
	// PredTwoBit — gshare and TAGE fix their own counter widths.
	Predictor PredictorKind

	Renaming  bool // true: full renaming; false: 1-bit scoreboarding
	Bypassing bool // true: results usable the cycle after writeback

	// StoreForwarding is an extension ablation: forward store data to
	// aliasing younger loads instead of the paper's restricted policy of
	// making the load wait for the drain.
	StoreForwarding bool

	Cache cache.Config
	// ICache, when non-nil, models a real instruction cache; nil is the
	// paper's perfect (100% hit) instruction cache.
	ICache *cache.Config
	FUs    FUConfig

	// Mix, when non-nil, runs a heterogeneous multiprogrammed workload:
	// one program per slot, threads assigned to slots contiguously, each
	// slot in its own physical window and register partition. Threads
	// must equal Mix.NumThreads(), and New is then called with a nil
	// object (the mix carries its programs).
	Mix *loader.Mix

	MaxCycles uint64 // runaway guard; 0 means a generous default

	// Watchdog is the forward-progress limit: if no block commits and no
	// store drains for this many cycles while work is outstanding, the
	// run stops immediately with a structured deadlock diagnostic instead
	// of spinning to MaxCycles. 0 means the default (100k cycles, far
	// beyond any legitimate stall); NoWatchdog disables the check.
	Watchdog uint64

	// NoFastForward has no effect: Run steps every cycle through the
	// full pipeline.
	//
	// Deprecated: the idle-cycle fast-forward it disabled was removed.
	NoFastForward bool

	// CheckInvariants enables the per-cycle invariant checker: SU age
	// ordering, rename-tag uniqueness, register-partition isolation,
	// store-buffer capacity and in-order drain, flexible-commit legality,
	// and selective-squash containment. Costs about 12x the simulation
	// time; exposed as -paranoid on the CLIs.
	CheckInvariants bool

	// PhaseTiming enables the per-phase wall-clock breakdown: each stage
	// of Cycle is stopwatched and the totals surface as Stats.PhaseTime.
	// Purely observational — simulated timing is unaffected — but the
	// timer reads roughly double the per-cycle host cost. No CLI or sweep
	// sets it, so timed runs never enter a cell store; only perfbench's
	// replay.phase_timing does (docs/PERFORMANCE.md gives the stage split
	// from a CPU profile instead).
	PhaseTiming bool

	// Injector, when non-nil, applies a deterministic fault schedule of
	// timing-only perturbations (forced cache miss delays, predictor
	// counter flips, writeback delays, spurious squashes). Architectural
	// results must be unaffected; internal/fault implements it.
	Injector FaultInjector

	// Coverage, when non-nil, receives counts of named microarchitectural
	// events (internal/cover) as the run reaches them, and is surfaced
	// again as Stats.Coverage. Each machine needs its own Set — Sets are
	// not safe for concurrent use; merge per-machine Sets afterwards.
	// Disabled machines pay one nil check per hook and allocate nothing.
	Coverage *cover.Set
}

// NoWatchdog disables the forward-progress watchdog.
const NoWatchdog = ^uint64(0)

// DefaultConfig is the paper's default hardware configuration.
func DefaultConfig() Config {
	return Config{
		Threads:        4,
		FetchPolicy:    TrueRR,
		CommitPolicy:   FlexibleCommit,
		CommitWindow:   4,
		SUEntries:      32,
		IssueWidth:     8,
		WritebackWidth: 8,
		StoreBuffer:    8,
		BTBEntries:     512,
		Renaming:       true,
		Bypassing:      true,
		Cache:          cache.DefaultConfig(),
		FUs:            DefaultFUs(),
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.Threads < 1 || c.Threads > isa.NumPhysRegs/8:
		return fmt.Errorf("core: thread count %d out of range", c.Threads)
	case c.SUEntries < BlockSize || c.SUEntries%BlockSize != 0:
		return fmt.Errorf("core: SU depth %d must be a positive multiple of %d", c.SUEntries, BlockSize)
	case c.IssueWidth < 1:
		return fmt.Errorf("core: issue width %d", c.IssueWidth)
	case c.WritebackWidth < 1:
		return fmt.Errorf("core: writeback width %d", c.WritebackWidth)
	case c.StoreBuffer < BlockSize:
		// A block with BlockSize stores can only commit once all of them
		// are buffered, so smaller buffers deadlock by construction.
		return fmt.Errorf("core: store buffer %d must be at least %d", c.StoreBuffer, BlockSize)
	case c.BTBEntries < 1 || (c.BTBEntries&(c.BTBEntries-1)) != 0:
		return fmt.Errorf("core: BTB entries %d must be a power of two", c.BTBEntries)
	case c.CommitWindow < 1:
		return fmt.Errorf("core: commit window %d", c.CommitWindow)
	}
	if c.CommitPolicy == LowestOnly && c.CommitWindow != 1 {
		return fmt.Errorf("core: LowestOnly commit requires window 1, got %d", c.CommitWindow)
	}
	if c.PredictorBits < 0 || c.PredictorBits > 4 {
		return fmt.Errorf("core: predictor bits %d out of range", c.PredictorBits)
	}
	if c.FetchPolicy < TrueRR || c.FetchPolicy > ConfThrottle {
		return fmt.Errorf("core: unknown fetch policy %v", c.FetchPolicy)
	}
	if c.Predictor < PredTwoBit || c.Predictor > PredTAGE {
		return fmt.Errorf("core: unknown predictor kind %v", c.Predictor)
	}
	if c.CommitPolicy != FlexibleCommit && c.CommitPolicy != LowestOnly {
		return fmt.Errorf("core: unknown commit policy %v", c.CommitPolicy)
	}
	if err := c.Cache.Validate(); err != nil {
		return fmt.Errorf("core: data cache: %w", err)
	}
	if c.ICache != nil {
		if err := c.ICache.Validate(); err != nil {
			return fmt.Errorf("core: instruction cache: %w", err)
		}
	}
	for cl := isa.Class(0); cl < isa.NumClasses; cl++ {
		if c.FUs.Count[cl] < 1 {
			return fmt.Errorf("core: no %v units configured", cl)
		}
		if c.FUs.Latency[cl] < 1 {
			return fmt.Errorf("core: %v latency must be at least 1", cl)
		}
	}
	if c.Mix != nil {
		if err := c.Mix.Validate(); err != nil {
			return err
		}
		if n := c.Mix.NumThreads(); n != c.Threads {
			return fmt.Errorf("core: mix has %d threads but Threads is %d", n, c.Threads)
		}
		// The slots' register partitions must fit the physical file.
		total := 0
		for _, s := range c.Mix.Slots {
			budget := s.Regs
			if budget == 0 {
				budget = isa.RegsPerThread(c.Threads)
			}
			if budget < 2 {
				return fmt.Errorf("core: mix slot register budget %d is too small", budget)
			}
			total += budget * s.Threads
		}
		if total > isa.NumPhysRegs {
			return fmt.Errorf("core: mix register partitions need %d physical registers, only %d exist", total, isa.NumPhysRegs)
		}
	}
	return nil
}

// predictorBits returns the counter width with its default applied.
func (c *Config) predictorBits() int {
	if c.PredictorBits == 0 {
		return 2
	}
	return c.PredictorBits
}

// maxCycles returns the runaway guard with its default applied.
func (c *Config) maxCycles() uint64 {
	if c.MaxCycles != 0 {
		return c.MaxCycles
	}
	return 500_000_000
}

// watchdogLimit returns the forward-progress limit, or 0 when disabled.
func (c *Config) watchdogLimit() uint64 {
	switch c.Watchdog {
	case NoWatchdog:
		return 0
	case 0:
		return 100_000
	}
	return c.Watchdog
}
