package core

import (
	"repro/internal/cover"
	"repro/internal/isa"
)

// The observation hook: the machine, its data cache and its sync
// controller report typed records (internal/cover) to one sink, m.obs.
// Every site tests it once, so a machine without one pays a branch per
// site and allocates nothing.

// Observe attaches s to the machine's event stream, after the coverage
// Recorder when Config.Coverage is set. Call it before the first Cycle.
func (m *Machine) Observe(s cover.Sink) {
	m.obs = cover.Chain(m.obs, s)
	m.dcache.Observer = m.obs
	m.sync.Observer = m.obs
}

// hit reports coverage event ev this cycle.
func (m *Machine) hit(ev cover.Event) { cover.Hit(m.obs, ev, m.now) }

// observe reports a record of kind k about entry e with payloads a and
// b. It inlines to the nil check; emit builds the record.
func (m *Machine) observe(k cover.Kind, e *suEntry, a, b uint64) {
	if m.obs != nil {
		m.emit(k, e, a, b)
	}
}

func (m *Machine) emit(k cover.Kind, e *suEntry, a, b uint64) {
	m.obs.Observe(cover.Record{Kind: k, Cycle: m.now, Thread: e.thread, PC: e.pc, Tag: e.tag, Inst: e.inst, A: a, B: b})
}

// sharedBTB reports whether threads share one BTB, the only case in
// which a lookup can hit an entry another thread trained.
func (m *Machine) sharedBTB() bool { return m.cfg.Threads > 1 && !m.cfg.PerThreadBTB }

// markCoverageApplicability excludes events this machine cannot reach,
// so coverage fractions never charge a run for states its configuration
// (fetch policy, renaming, forwarding, ports, commit policy, thread
// count) or its program (no sync primitives, no stores, no predictable
// control transfers) rules out.
func (m *Machine) markCoverageApplicability() {
	cov := m.cfg.Coverage
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
	mark(!m.sharedBTB(), cover.EvBTBCrossThreadHit)
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
