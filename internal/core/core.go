package core

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/cover"
	"repro/internal/isa"
	"repro/internal/loader"
	"repro/internal/mem"
	"repro/internal/syncctl"
)

// Machine is one configured SDSP core with a loaded program and N
// resident threads. Create with New, drive with Run (or Cycle for
// fine-grained control), then read Stats and architectural state.
type Machine struct {
	cfg Config

	memory *mem.Memory
	dcache *cache.Cache
	icache *cache.Cache // nil: perfect instruction cache (paper default)
	sync   *syncctl.Controller
	preds  []bpred.Predictor // one shared (paper) or one per thread

	// Program layout. A homogeneous run is the single-slot special case:
	// one text, every physBase zero, regBase[t] = t*kregs, vtid[t] = t —
	// the arithmetic on every hot path is then bit-identical to the
	// classic single-program machine. A heterogeneous Mix (Config.Mix)
	// stacks one 2 MiB physical window per slot (loader.SlotStride):
	// virtual addresses (PCs and computed effective addresses) translate
	// by adding the thread's physBase the moment they are validated, so
	// every address the cache, store buffer, and sync controller see is
	// physical and slot isolation is structural.
	texts     [][]decoded // per-slot predecoded text segments
	slotOf    []int       // thread -> slot index
	physBase  []uint32    // thread -> slot physical base address
	regBase   []int       // thread -> first physical register
	regBudget []int       // thread -> logical register budget
	vtid      []int       // thread -> rank within its slot's thread group (TID)
	vnth      []int       // thread -> its slot's thread-group size (NTH)

	regs [isa.NumPhysRegs]uint32

	// Scheduling unit: su[0] is the bottom (oldest) block. Blocks point
	// into the fixed block arena; entries live at their scoreboard bit
	// and, like store ops, are referenced by index (see pool.go and
	// soa.go).
	su      []*block
	suCap   int // capacity in blocks
	nextTag uint64

	// Arenas and free lists (see pool.go), all fixed at New. The cycle
	// loop is allocation-free: blocks (and with them their entries) and
	// store ops recycle through the index free lists, and the per-stage
	// scratch slices keep their capacity between cycles.
	ents        []suEntry
	blocks      []block
	sops        []storeOp
	blockFree   []int32
	storeOpFree []int32
	fbuf        fetchBlock                 // the single decode latch, reused across fetches
	wbDue       []int32                    // writeback: completions due this cycle
	icountOcc   []int                      // ICount policy: per-thread in-flight counts
	probePCs    [BlockSize]uint32          // fetch: batched BTB probe addresses
	probeOut    [BlockSize]bpred.BlockPred // fetch: batched BTB probe results

	// Bitset scoreboards and incremental counters mirroring the entry
	// arrays (see soa.go; re-derived by the invariant checker).
	liveBits    []uint64
	waitBits    []uint64
	unreadyBits []uint64
	swBits      []uint64
	fstwBits    []uint64
	threadBits  [][]uint64
	doneBlocks  int     // SU blocks with every live entry done
	syncUndone  []int32 // per thread: live sync-class entries not yet done
	ctUnres     []int32 // per thread: live CT entries not yet done
	fstwPend    []int32 // per thread: FSTW live in SU or undrained in buffer
	swPend      []int32 // per thread: SW live in SU or committed-undrained
	// regProd[p] is the newest live SU writer of physical register p
	// (entry arena index, -1 when the register file is current) — the
	// associative rename lookup as a table.
	regProd [isa.NumPhysRegs]int32

	// Front end.
	latch        *fetchBlock
	pc           []uint32
	fetchStopped []bool // a fetched HALT stops the thread's fetch
	halted       []bool // HALT committed; thread is finished
	rrCounter    int
	curThread    int // CondSwitch's active thread
	maskedThread int // MaskedRR: thread stalling the bottom block, or -1
	confMeter    int // ConfThrottle: saturating 0..confMeterMax confidence meter

	pools        []fuPool
	completions  []int32 // entry indices with results in flight
	pendingLoads []int32 // entry indices of loads waiting on the cache
	loadReqs     []cache.ReadReq

	storeBuf   []int32 // all undrained stores, for occupancy and alias checks
	drainQueue []int32 // committed stores in commit order

	// Scoreboard mode (Renaming=false): tag+1 of the in-flight writer of
	// each physical register, 0 when free.
	busyReg [isa.NumPhysRegs]uint64

	now uint64
	// stats is allocated apart from the machine so that a caller keeping
	// Run's *Stats does not keep the machine (and its memory) alive.
	stats *Stats

	// Wall-clock accounting per pipeline phase (Config.PhaseTiming).
	phaseTime PhaseTimes

	// Robustness layer (see docs/ROBUSTNESS.md).
	fault        *MachineError // first structured fault; freezes the machine
	lastProgress uint64        // last cycle a block committed or a store drained
	storeSeq     uint64        // commit-order sequence stamped on drained stores
	sbHeld       int           // store-buffer slots held this cycle by fault injection

	// Coverage layer (see internal/cover); all nil/empty when disabled.
	cov          *cover.Set
	covFLDWAddr  []uint32       // per-thread: last FLDW address
	covFLDWVal   []uint32       // per-thread: last FLDW value read
	covFLDWSeen  []bool         // per-thread: covFLDWAddr/Val are valid
	covFAIAddr   uint32         // last FAI address machine-wide
	covFAIThread int            // thread of the last FAI, or -1
	covBTBTrain  map[uint32]int // shared-BTB trainer thread per branch PC

	// Trace, when set, receives one line per pipeline event (fetch,
	// dispatch, issue, writeback, mispredict, commit), prefixed with the
	// cycle number. Heavy; intended for debugging and teaching.
	Trace func(format string, args ...any)
}

// trace emits a pipeline event when tracing is enabled.
func (m *Machine) trace(format string, args ...any) {
	if m.Trace != nil {
		m.Trace("%8d  "+format, append([]any{m.now}, args...)...)
	}
}

// New builds a machine for obj under cfg. A heterogeneous machine is
// requested by setting cfg.Mix and passing a nil obj; the mix carries
// its own programs. A homogeneous run is the one-slot mix of obj, built
// through the same layout path.
func New(obj *loader.Object, cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mix := cfg.Mix
	if mix == nil {
		mix = loader.SoloMix(obj, cfg.Threads)
	} else if obj != nil {
		return nil, fmt.Errorf("core: both an object and Config.Mix were given")
	}
	m0, err := mix.Load()
	if err != nil {
		return nil, err
	}
	npred := 1
	if cfg.PerThreadBTB {
		npred = cfg.Threads
	}
	preds := make([]bpred.Predictor, npred)
	for i := range preds {
		preds[i] = newPredictor(cfg)
	}
	m := &Machine{
		cfg:          cfg,
		memory:       m0,
		dcache:       cache.New(cfg.Cache, m0),
		sync:         syncctl.New(m0),
		preds:        preds,
		texts:        make([][]decoded, len(mix.Slots)),
		slotOf:       make([]int, cfg.Threads),
		physBase:     make([]uint32, cfg.Threads),
		regBase:      make([]int, cfg.Threads),
		regBudget:    make([]int, cfg.Threads),
		vtid:         make([]int, cfg.Threads),
		vnth:         make([]int, cfg.Threads),
		suCap:        cfg.SUEntries / BlockSize,
		pc:           make([]uint32, cfg.Threads),
		fetchStopped: make([]bool, cfg.Threads),
		halted:       make([]bool, cfg.Threads),
		maskedThread: -1,
		pools:        newPools(cfg.FUs),
		stats:        &Stats{},
	}
	// Each slot's threads get its text, its physical window, a register
	// partition, and thread ids relative to the slot.
	t, base := 0, 0
	for s, slot := range mix.Slots {
		budget := slot.Regs
		if budget == 0 {
			budget = isa.RegsPerThread(cfg.Threads)
		}
		where := ""
		if len(mix.Slots) > 1 {
			where = fmt.Sprintf("mix slot %d ", s)
		}
		text := make([]decoded, len(slot.Object.Text))
		for i, w := range slot.Object.Text {
			in, err := isa.Decode(w)
			if err != nil {
				return nil, fmt.Errorf("core: %stext word %d: %w", where, i, err)
			}
			// Pre-validate the register budget so no rename-time panic is
			// reachable from a loadable object: every register field must
			// fit the thread's static partition.
			if r := in.MaxReg(); int(r) >= budget {
				return nil, fmt.Errorf("core: %stext word %d (%v at %#x) uses r%d, but its partition on the %d-thread machine is %d registers per thread",
					where, i, in, uint32(i)*4, r, cfg.Threads, budget)
			}
			text[i] = decode(in)
		}
		m.texts[s] = text
		for k := 0; k < slot.Threads; k++ {
			m.slotOf[t] = s
			m.physBase[t] = loader.SlotBase(s)
			m.regBase[t] = base
			m.regBudget[t] = budget
			m.vtid[t] = k
			m.vnth[t] = slot.Threads
			m.pc[t] = slot.Object.Entry
			base += budget
			t++
		}
	}
	m.initSoA()
	m.sync.SetStride(loader.SlotStride)
	if cfg.FetchPolicy == ICount || cfg.FetchPolicy == ICountFeedback {
		m.icountOcc = make([]int, cfg.Threads)
	}
	m.confMeter = confMeterMax // start confident: full fetch rate until evidence says otherwise
	if cfg.ICache != nil {
		m.icache = cache.New(*cfg.ICache, m0)
	}
	if inj := cfg.Injector; inj != nil {
		m.dcache.FaultDelay = func(now uint64, addr uint32, write bool) uint64 {
			d := inj.CacheDelay(now, addr, write)
			if d > 0 {
				m.stats.Faults.Add(ChanCacheDelay)
			}
			return d
		}
		m.sync.FaultDelay = func(now uint64, addr uint32, rmw bool) uint64 {
			d := inj.SyncDelay(now, addr, rmw)
			if d > 0 {
				m.stats.Faults.Add(ChanSyncDelay)
			}
			return d
		}
	}
	if cfg.Coverage != nil {
		m.initCoverage()
	}
	m.stats.CommittedByThread = make([]uint64, cfg.Threads)
	m.stats.HaltCycleByThread = make([]uint64, cfg.Threads)
	for cl := range m.stats.FUUsage {
		m.stats.FUUsage[cl] = make([]uint64, cfg.FUs.Count[cl])
	}
	return m, nil
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Memory exposes architectural memory; call after Run (the run drains
// the cache) or use FlushCache first.
func (m *Machine) Memory() *mem.Memory { return m.memory }

// Reg reads thread t's logical register r as of the committed state.
// Out-of-partition registers read as zero.
func (m *Machine) Reg(t, r int) uint32 {
	if t < 0 || t >= m.cfg.Threads || r <= 0 || r >= m.regBudget[t] {
		return 0
	}
	return m.regs[m.regBase[t]+r]
}

// physAddr translates thread t's virtual address to physical: its
// slot's window base plus the virtual offset. Homogeneous machines have
// a zero base everywhere, so the translation is the identity.
func (m *Machine) physAddr(t int, va uint32) uint32 { return m.physBase[t] + va }

// Now returns the current cycle.
func (m *Machine) Now() uint64 { return m.now }

// Done reports whether every thread has committed HALT and the pipeline
// has fully drained.
func (m *Machine) Done() bool {
	for _, h := range m.halted {
		if !h {
			return false
		}
	}
	return len(m.su) == 0 && m.latch == nil && len(m.storeBuf) == 0 &&
		len(m.drainQueue) == 0 && len(m.completions) == 0 && len(m.pendingLoads) == 0
}

// Run executes cycles until done. Any fault — runaway guard, watchdog
// deadlock, invariant violation, or a committed illegal memory access —
// is returned as a *MachineError carrying the faulting cycle, phase,
// thread, PC, and a state dump.
func (m *Machine) Run() (*Stats, error) {
	limit := m.cfg.maxCycles()
	for !m.Done() && m.fault == nil {
		if m.now >= limit {
			m.failf(FaultRunaway, "run", -1, 0, "exceeded %d cycles without finishing", limit)
			break
		}
		m.Cycle()
	}
	if m.fault != nil {
		m.finishStats()
		return nil, m.fault
	}
	m.dcache.FlushAll()
	m.finishStats()
	return m.stats, nil
}

// Stats returns the statistics gathered so far.
func (m *Machine) Stats() *Stats {
	m.finishStats()
	return m.stats
}

// newPredictor builds one predictor instance for cfg. Per-thread-BTB
// machines call it once per thread; the per-thread gshare variant still
// keys history by the real thread index inside each replica.
func newPredictor(cfg Config) bpred.Predictor {
	switch cfg.Predictor {
	case PredGshare:
		return bpred.NewGshare(cfg.BTBEntries, cfg.Threads, false)
	case PredGshareThread:
		return bpred.NewGshare(cfg.BTBEntries, cfg.Threads, true)
	case PredTAGE:
		return bpred.NewTAGE(cfg.BTBEntries)
	}
	return bpred.NewBits(cfg.BTBEntries, cfg.predictorBits())
}

// predFor returns the predictor serving thread t.
func (m *Machine) predFor(t int) bpred.Predictor {
	if len(m.preds) == 1 {
		return m.preds[0]
	}
	return m.preds[t]
}

func (m *Machine) finishStats() {
	m.stats.Cycles = m.now
	m.stats.Branch = bpred.Stats{}
	for _, p := range m.preds {
		m.stats.Branch.Add(p.Stats())
	}
	m.stats.Cache = m.dcache.Stats()
	if m.icache != nil {
		m.stats.ICache = m.icache.Stats()
	}
	m.stats.Sync = m.sync.Stats()
	m.stats.Coverage = m.cov
	m.stats.PhaseTime = m.phaseTime
	for cl := range m.pools {
		for u := range m.pools[cl].units {
			m.stats.FUUsage[cl][u] = m.pools[cl].units[u].occupancy(m.now)
		}
	}
}

// Cycle advances the machine one clock. Stages run commit-first so data
// moves at most one stage per cycle. A faulted machine does not advance;
// check Err between cycles when driving the clock by hand.
func (m *Machine) Cycle() {
	if m.fault != nil {
		return
	}
	if m.cfg.PhaseTiming {
		m.cycleTimed()
		return
	}
	m.now++
	m.dcache.Tick(m.now)
	if m.icache != nil {
		m.icache.Tick(m.now)
	}
	if m.cfg.Injector != nil {
		m.injectPredictorFlip()
		m.injectStoreBufferHold()
	}
	m.commit()
	m.drainStores()
	m.serviceLoads()
	m.writeback()
	m.issue()
	m.dispatch()
	m.fetch()
	if m.fault == nil && m.cfg.CheckInvariants {
		if err := m.CheckInvariants(); err != nil {
			m.failf(FaultInvariant, "invariant check", -1, 0, "%v", err)
		}
	}
	m.watchdogCheck()
	m.cycleStats()
}

// injectPredictorFlip applies this cycle's BTB counter perturbation, if
// the fault schedule calls for one. Predictor state is timing-only, so
// arbitrary flips must never change architectural results.
func (m *Machine) injectPredictorFlip() {
	slot, ok := m.cfg.Injector.FlipPredictor(m.now)
	if !ok {
		return
	}
	p := m.preds[slot%len(m.preds)]
	if p.FlipEntry(slot / len(m.preds)) {
		m.stats.Faults.Add(ChanPredictorFlip)
	}
}

// injectStoreBufferHold applies this cycle's store-buffer slot hold:
// that many slots are unavailable to newly issuing stores for one
// cycle. The hold is capped so a full block's worth of slots always
// remains — the deadlock-avoidance proof in tryIssue needs an
// effective buffer of at least BlockSize — which keeps the
// perturbation timing-only.
func (m *Machine) injectStoreBufferHold() {
	h := m.cfg.Injector.StoreBufferHold(m.now)
	if h <= 0 {
		m.sbHeld = 0
		return
	}
	if maxHold := m.cfg.StoreBuffer - BlockSize; h > maxHold {
		h = maxHold
	}
	m.sbHeld = h
	if h > 0 {
		m.stats.Faults.Add(ChanStoreSlotHold)
	}
}

// watchdogCheck trips the forward-progress watchdog: outstanding work
// but no block commit and no store drain for the configured limit means
// the machine is deadlocked, so report it now rather than spinning to
// MaxCycles.
func (m *Machine) watchdogCheck() {
	limit := m.cfg.watchdogLimit()
	if limit == 0 || m.fault != nil || m.Done() {
		return
	}
	// Additive comparison: now <= lastProgress+limit avoids the
	// uint64 subtraction-underflow hazard sdsp-lint flags.
	if m.now <= m.lastProgress+limit {
		return
	}
	thread, pc := -1, uint32(0)
	why := "no blocks in flight"
	if len(m.su) > 0 {
		b := m.su[0]
		thread = b.thread
		es := m.blockEnts(b)
		for s := range es {
			e := &es[s]
			if e.valid && !e.squashed {
				pc = e.pc
				why = fmt.Sprintf("bottom block is thread %d at pc %#x, oldest state %v", b.thread, e.pc, e.state)
				break
			}
		}
	} else if len(m.drainQueue) > 0 {
		so := &m.sops[m.drainQueue[0]]
		thread, pc = so.thread, so.pc
		why = fmt.Sprintf("store to %#x committed but never drained", so.addr)
	}
	m.failf(FaultDeadlock, "watchdog", thread, pc,
		"no commit or store drain for %d cycles; %s", m.now-m.lastProgress, why)
}

func (m *Machine) cycleStats() {
	occ := bsCount(m.liveBits)
	m.stats.SUOccupancy += uint64(occ)
	if len(m.su) == m.suCap {
		m.stats.SUFullCycles++
	}
	if m.cov != nil {
		if occ == 0 {
			for _, h := range m.halted {
				if !h {
					m.cov.Hit(cover.EvSUEmptyBubble)
					break
				}
			}
		} else if m.cfg.Threads > 1 {
			for t, tb := range m.threadBits {
				if !bsAny(tb) && !m.halted[t] {
					m.cov.Hit(cover.EvThreadStarved)
					break
				}
			}
		}
	}
}

// physReg maps thread t's logical register to its physical register, or
// -1 for the hardwired zero register. Out-of-budget registers cannot
// reach here (New validates every text word against the partition), so
// an over-budget request is reported as an internal fault and treated
// as the zero register to keep the machine in a defined state.
func (m *Machine) physReg(t int, r uint8) int {
	if r == 0 {
		return -1
	}
	if int(r) >= m.regBudget[t] {
		m.failf(FaultInternal, "rename", t, 0,
			"r%d exceeds the %d-register partition (text was validated at load)", r, m.regBudget[t])
		return -1
	}
	return m.regBase[t] + int(r)
}

// dump renders machine state for runaway diagnostics.
func (m *Machine) dump() string {
	s := fmt.Sprintf("cycle %d; SU %d/%d blocks; latch=%v\n", m.now, len(m.su), m.suCap, m.latch != nil)
	for t := 0; t < m.cfg.Threads; t++ {
		s += fmt.Sprintf("  thread %d: pc=%#x halted=%v stopped=%v\n", t, m.pc[t], m.halted[t], m.fetchStopped[t])
	}
	for i, b := range m.su {
		es := m.blockEnts(b)
		for k := range es {
			e := &es[k]
			if e.valid {
				sq := ""
				if e.squashed {
					sq = " SQUASHED"
				}
				s += fmt.Sprintf("  su[%d] %v%s src0=%+v src1=%+v\n", i, e, sq, e.src[0], e.src[1])
			}
		}
	}
	s += fmt.Sprintf("  storeBuf=%d drainQueue=%d completions=%d pendingLoads=%d\n",
		len(m.storeBuf), len(m.drainQueue), len(m.completions), len(m.pendingLoads))
	for _, si := range m.storeBuf {
		so := &m.sops[si]
		s += fmt.Sprintf("  storeBuf: %v addr=%#x committed=%v\n", so, so.addr, so.committed)
	}
	cs := m.dcache.Stats()
	s += fmt.Sprintf("  dcache: reads=%d writes=%d hits=%d misses=%d writebacks=%d pending=%v\n",
		cs.Reads, cs.Writes, cs.Hits, cs.Misses, cs.Writebacks, m.dcache.Pending())
	return s
}
