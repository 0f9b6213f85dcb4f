package core

import (
	"repro/internal/cover"
	"repro/internal/isa"
)

// Coverage wiring. A machine built with Config.Coverage non-nil caches
// the Set on m.cov, and every pipeline stage reports its named events
// through one-branch hooks (`if m.cov != nil { m.cov.Hit(...) }`).
// The handful of events that need state the pipeline doesn't otherwise
// keep — the last FLDW observation per thread, the last FAI requester,
// which thread last trained each BTB entry, per-thread SU occupancy —
// get that state allocated here, only when coverage is on, so the
// default hot path is untouched.

// initCoverage wires cfg.Coverage into the machine and its cache and
// sync controller, allocates coverage-only tracking state, and marks
// the events this configuration and program cannot reach.
func (m *Machine) initCoverage() {
	cov := m.cfg.Coverage
	m.cov = cov
	m.dcache.Cover = cov
	m.sync.Cover = cov
	m.covFLDWAddr = make([]uint32, m.cfg.Threads)
	m.covFLDWVal = make([]uint32, m.cfg.Threads)
	m.covFLDWSeen = make([]bool, m.cfg.Threads)
	m.covFAIThread = -1
	if m.cfg.Threads > 1 && !m.cfg.PerThreadBTB {
		m.covBTBTrain = make(map[uint32]int, 64)
	}
	m.markCoverageApplicability()
}

// markCoverageApplicability excludes events this machine cannot reach,
// so coverage fractions never charge a run for states its configuration
// (fetch policy, renaming, forwarding, ports, commit policy, thread
// count) or its program (no sync primitives, no stores, no predictable
// control transfers) rules out.
func (m *Machine) markCoverageApplicability() {
	cov := m.cov
	cfg := &m.cfg
	mark := func(off bool, evs ...cover.Event) {
		if off {
			for _, e := range evs {
				cov.MarkInapplicable(e)
			}
		}
	}

	// Configuration gates.
	mark(cfg.FetchPolicy != MaskedRR, cover.EvFetchMaskedSkip)
	mark(cfg.FetchPolicy != CondSwitch, cover.EvFetchCondRotate)
	mark(cfg.FetchPolicy != ICount && cfg.FetchPolicy != ICountFeedback,
		cover.EvFetchICountSteer)
	mark(cfg.FetchPolicy != ICountFeedback, cover.EvFetchFeedbackHold)
	mark(cfg.FetchPolicy != ConfThrottle, cover.EvFetchConfThrottle)
	mark(cfg.ICache == nil, cover.EvICacheMissStall)
	mark(cfg.Renaming, cover.EvDispatchWAWStall)
	mark(cfg.Threads < 2 || cfg.PerThreadBTB, cover.EvBTBCrossThreadHit)
	mark(!cfg.StoreForwarding, cover.EvLoadForwardCross)
	mark(cfg.StoreForwarding, cover.EvLoadBlockedCrossAlias)
	mark(cfg.Cache.Ports == 0, cover.EvCachePortReject)
	mark(cfg.Cache.L2 == nil, cover.EvCacheL2Hit)
	mark(cfg.Cache.VictimEntries == 0, cover.EvCacheVictimHit)
	mark(!cfg.Cache.Prefetch, cover.EvCachePrefetchHit, cover.EvCachePrefetchEvict)
	flex := cfg.CommitPolicy == FlexibleCommit
	mark(!flex || cfg.Threads < 2 || cfg.CommitWindow < 2, cover.EvCommitAhead)
	mark(!flex || cfg.Threads < 2 || cfg.CommitWindow < 3, cover.EvCommitAheadDeep)
	mark(!flex || cfg.CommitWindow < 2, cover.EvCommitBlockedClash)
	mark(cfg.Threads < 2,
		cover.EvIssueCrossThread, cover.EvSquashSparesOthers, cover.EvThreadStarved)

	// Program gates, from the predecoded text.
	var hasLoad, hasSW, hasStore, hasFSTW, hasFLDW, hasFAI, hasPredCT, hasAnyCT bool
	for _, text := range m.texts {
		for _, d := range text {
			in := d.inst
			switch {
			case in.Op == isa.SW:
				hasSW, hasStore = true, true
			case in.Op == isa.FSTW:
				hasFSTW, hasStore = true, true
			case in.Op == isa.FLDW:
				hasFLDW = true
			case in.Op == isa.FAI:
				hasFAI = true
			case in.Op.FUClass() == isa.ClassLoad:
				hasLoad = true
			case in.Op.IsBranch() || in.Op == isa.JALR:
				hasPredCT, hasAnyCT = true, true
			case in.Op == isa.JAL:
				hasAnyCT = true
			}
		}
	}
	hasSyncRead := hasFLDW || hasFAI
	hasMem := hasLoad || hasSW

	mark(!hasAnyCT, cover.EvFetchTakenTrunc)
	mark(!hasPredCT,
		cover.EvFetchWrongPath, cover.EvFetchLowConf, cover.EvMispredictSquash,
		cover.EvSquashSurvivors, cover.EvSquashSparesOthers,
		cover.EvSquashKilledLatch, cover.EvSquashRevivedFetch)
	mark(!hasPredCT || !hasStore, cover.EvSquashKilledStore)
	mark(!hasPredCT || !hasMem, cover.EvBadAddrSpeculative)
	mark(!hasLoad || !hasSyncRead, cover.EvLoadBlockedSyncOrder)
	mark(!hasLoad || !hasSW,
		cover.EvLoadBlockedAlias, cover.EvLoadBlockedCrossAlias,
		cover.EvLoadForwardSameBlock, cover.EvLoadForwardCross)
	mark(!hasStore, cover.EvStoreBufferFull, cover.EvStoreBufferSaturated)
	mark(!hasSW, cover.EvStoreDrainBlocked, cover.EvCacheEvictDirty)
	mark(!hasMem,
		cover.EvCacheSecondMiss, cover.EvCacheRefillOverlap, cover.EvCacheBlockedReject)
	mark(!hasFLDW, cover.EvFLDWSleep, cover.EvFLDWWake)
	mark(!hasFAI, cover.EvFAIBlockedSpec, cover.EvFAIContention)
	mark(!hasFSTW || !hasSyncRead, cover.EvSyncFencedFlagStore, cover.EvFlagHandoff)
}

// covFLDWObserve classifies a completed FLDW against the thread's
// previous read of the same flag: the same value is a spin iteration
// (sleep), a changed value is a wakeup.
func (m *Machine) covFLDWObserve(t int, addr, v uint32) {
	if m.covFLDWSeen[t] && m.covFLDWAddr[t] == addr {
		if m.covFLDWVal[t] == v {
			m.cov.Hit(cover.EvFLDWSleep)
		} else {
			m.cov.Hit(cover.EvFLDWWake)
		}
	}
	m.covFLDWSeen[t], m.covFLDWAddr[t], m.covFLDWVal[t] = true, addr, v
}

// covFAIObserve detects back-to-back FAIs on one address from
// different threads — the contention the paper's barrier counters see.
func (m *Machine) covFAIObserve(t int, addr uint32) {
	if m.covFAIThread >= 0 && m.covFAIAddr == addr && m.covFAIThread != t {
		m.cov.Hit(cover.EvFAIContention)
	}
	m.covFAIAddr, m.covFAIThread = addr, t
}

// covBTBLookup fires when thread t consults a shared-BTB entry last
// trained by a different thread (constructive or destructive aliasing).
func (m *Machine) covBTBLookup(t int, pc uint32) {
	if m.covBTBTrain == nil {
		return
	}
	if tr, ok := m.covBTBTrain[pc]; ok && tr != t {
		m.cov.Hit(cover.EvBTBCrossThreadHit)
	}
}

// covBTBTrained records the committing trainer of a BTB entry.
func (m *Machine) covBTBTrained(t int, pc uint32) {
	if m.covBTBTrain != nil {
		m.covBTBTrain[pc] = t
	}
}
