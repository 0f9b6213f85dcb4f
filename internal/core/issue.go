package core

import (
	"math/bits"

	"repro/internal/cache"
	"repro/internal/cover"
	"repro/internal/isa"
	"repro/internal/loader"
)

// issue is the dynamic scheduler: it scans the SU bottom-to-top (oldest
// first) and sends ready instructions to free functional units, up to
// IssueWidth per cycle. It is thread-blind — dependencies are entirely
// expressed by tags — exactly as the paper argues. The scan walks the
// waiting-entry bitset one block group at a time, so cycles with no
// issue candidates cost a counter test and blocks with no waiting
// entries cost one shift.
func (m *Machine) issue() {
	if m.fault != nil || m.waitCnt == 0 {
		return
	}
	issued := 0
	firstThread := -1
	crossed := false
scan:
	for _, b := range m.su {
		g := bsGroup(m.waitBits, b.bi)
		for g != 0 {
			s := bits.TrailingZeros64(g)
			g &= g - 1
			if issued >= m.cfg.IssueWidth {
				break scan
			}
			e := &m.ents[b.entries[s]]
			if !e.ready(m.now) {
				continue
			}
			if m.tryIssue(e) {
				if m.Trace != nil {
					m.trace("issue    %v -> %v unit %d", e, e.inst.Op.FUClass(), e.fuUnit)
				}
				issued++
				if firstThread < 0 {
					firstThread = e.thread
				} else if e.thread != firstThread {
					crossed = true
				}
			}
		}
	}
	if m.cov != nil {
		if issued >= m.cfg.IssueWidth {
			m.cov.Hit(cover.EvIssueWidthSaturated)
		}
		if crossed {
			m.cov.Hit(cover.EvIssueCrossThread)
		}
	}
}

// spuriousWakeupBackoff is how many cycles an FLDW retries after an
// injected spurious wakeup discarded its delivered value.
const spuriousWakeupBackoff = 4

// toCompletions moves an issued entry onto the completion queue.
func (m *Machine) toCompletions(e *suEntry) {
	m.retain(e)
	e.where |= inCompletions
	m.completions = append(m.completions, e.idx)
}

// refusal is why a ready waiting entry does not issue. Every refusal
// is a pure function of state that only issue, writeback, commit, or
// drain change, which is what lets the fast-forward replay one across
// an inert span (see noteRefusal).
type refusal uint8

const (
	refNone        refusal = iota // the entry issues
	refSyncOrder                  // load behind an older unresolved sync primitive
	refAlias                      // load behind an older store of unknown address or data
	refCrossAlias                 // restricted policy: a cross-block alias waits for the drain
	refStoreFull                  // the store buffer cannot reserve a slot
	refFAISpec                    // FAI behind an older unresolved control transfer
	refFlagFence                  // sync op behind an older undrained flag store
	refFUExhausted                // every unit of the class is busy
)

// refusalEvent is each refusal's coverage event.
var refusalEvent = [...]cover.Event{
	refSyncOrder:   cover.EvLoadBlockedSyncOrder,
	refAlias:       cover.EvLoadBlockedAlias,
	refCrossAlias:  cover.EvLoadBlockedCrossAlias,
	refStoreFull:   cover.EvStoreBufferFull,
	refFAISpec:     cover.EvFAIBlockedSpec,
	refFlagFence:   cover.EvSyncFencedFlagStore,
	refFUExhausted: cover.EvIssueFUExhausted,
}

// noteRefusal counts one refused issue attempt: the refusal's stat
// counter, where it has one, and its coverage event.
func (m *Machine) noteRefusal(r refusal) {
	switch r {
	case refSyncOrder, refAlias, refCrossAlias:
		m.stats.LoadBlocked++
	case refStoreFull:
		m.stats.StoreBufferFull++
	}
	if m.cov != nil {
		m.cov.Hit(refusalEvent[r])
	}
}

// loadPath is what issueVerdict learns about a load on its way to a
// verdict, handed back so tryIssue does not repeat the store scan.
type loadPath struct {
	addr      uint32 // the physical effective address
	val       uint32 // the forwarded value
	fwd       bool   // an older aliasing store forwards val
	sameBlock bool   // the forwarding store is in the load's own block
}

// issueVerdict decides whether the ready waiting entry e, of FU class
// class, would issue at cycle now with held store-buffer slots
// unavailable: the unit it would take, or the refusal and -1. It
// changes nothing but *ld, which it fills for loads: tryIssue asks at
// m.now with m.sbHeld, and the fast-forward asks at m.now+1 with no
// held slots. The unit check comes last, after every ordering and
// resource rule of the entry's class.
func (m *Machine) issueVerdict(e *suEntry, class isa.Class, now uint64, held int, ld *loadPath) (refusal, int) {
	switch class {
	case isa.ClassLoad:
		// Acquire ordering: a load may not issue past an older unresolved
		// same-thread sync primitive. Without this, a load speculated past
		// a flag-spin exit can capture stale data that survives because
		// the spin exit turns out to be correctly predicted.
		if m.olderUnresolvedSync(e) {
			return refSyncOrder, -1
		}
		// Alias comparisons run on physical addresses throughout: issued
		// stores latch physical addresses, and same-thread translation is
		// a constant offset, so equality is unchanged from virtual space.
		ld.addr = m.physAddr(e.thread, isa.EffAddr(e.src[0].value, e.inst.Imm))
		val, src, blocked := m.forwardFromStore(e, ld.addr)
		// An older store to the same address supplies the value. With the
		// StoreForwarding extension any store forwards. Under the paper's
		// restricted policy only a store in the load's own commit block
		// may forward — without that, a same-block store→load alias
		// deadlocks (the load waits for the drain, the drain waits for
		// commit, commit waits for the load); a cross-block alias waits
		// for the drain as the paper says. Block identity is compared by
		// id: a committed store's block has left the SU and its struct may
		// already be recycled.
		switch {
		case blocked:
			return refAlias, -1
		case src != nil && !m.cfg.StoreForwarding && src.blkID != e.blkID:
			return refCrossAlias, -1
		}
		if src != nil {
			ld.fwd, ld.val, ld.sameBlock = true, val, src.blkID == e.blkID
		}
	case isa.ClassStore:
		// Deadlock avoidance: a store may take a slot only if enough free
		// slots remain for every waiting store at or below its block.
		// Slots free only when a store drains, draining needs its block to
		// commit, and a block commits only once ALL its stores have
		// issued — so if younger stores (or even an older sibling) exhaust
		// the buffer while any store of an older block still waits, the
		// machine wedges. Reserving per waiting store guarantees the
		// bottom block can always issue all of its stores (Validate keeps
		// StoreBuffer >= BlockSize), commit, and drain.
		// Fault injection may hold some slots for a cycle (held), capped
		// so the effective buffer never drops below BlockSize and the
		// reservation argument above still goes through.
		if m.cfg.StoreBuffer-len(m.storeBuf)-held <= m.waitingStoresBelow(e) {
			return refStoreFull, -1
		}
	case isa.ClassSync:
		// FAI has a side effect, so it must issue non-speculatively.
		if e.inst.Op == isa.FAI && m.olderUnresolvedCT(e) {
			return refFAISpec, -1
		}
		// Release ordering: sync reads execute at issue and would bypass
		// an older same-thread FSTW still queued in the store buffer
		// (e.g. the barrier's count reset), reading a stale flag. Fence
		// until older flag stores have drained.
		if m.olderPendingFlagStore(e) {
			return refFlagFence, -1
		}
	}
	if unit := m.pools[class].tryAcquire(now); unit >= 0 {
		return refNone, unit
	}
	return refFUExhausted, -1
}

// tryIssue issues e if its verdict allows, and begins execution.
// Reports whether the instruction left the window.
func (m *Machine) tryIssue(e *suEntry) bool {
	op := e.inst.Op
	class := op.FUClass()
	var ld loadPath
	ref, unit := m.issueVerdict(e, class, m.now, m.sbHeld, &ld)
	// A sync op that passed its ordering rules asks the controller for
	// its grant before taking a unit, and fault injection may hold it.
	if (ref == refNone || ref == refFUExhausted) && class == isa.ClassSync &&
		m.cfg.Injector != nil && m.syncHeld(e) {
		return false
	}
	if ref != refNone {
		m.noteRefusal(ref)
		return false
	}
	pool := &m.pools[class]
	e.state = stIssued
	m.noteIssued(e)
	e.fuUnit = unit

	a := e.src[0].value
	bv := e.src[1].value

	switch class {
	case isa.ClassLoad:
		if ld.fwd {
			e.addr = ld.addr
			e.addrValid = true
			e.result = ld.val
			e.completeAt = pool.issue(unit, m.now)
			m.toCompletions(e)
			m.stats.LoadsForwarded++
			if m.cov != nil {
				if ld.sameBlock {
					m.cov.Hit(cover.EvLoadForwardSameBlock)
				} else {
					m.cov.Hit(cover.EvLoadForwardCross)
				}
			}
			return true
		}
		// Addresses are validated in the thread's virtual space, then
		// latched physical (slot-translated) — including bad addresses, so
		// every alias comparison stays in one address space.
		va := isa.EffAddr(a, e.inst.Imm)
		e.addr = m.physAddr(e.thread, va)
		e.addrValid = true
		if !loader.IsDataAddr(va) || (va&3) != 0 {
			// Wrong-path garbage address: complete with a dummy value and
			// flag it; committing such a load is a program error.
			e.badAddr = true
			e.result = 0
			if m.cov != nil {
				m.cov.Hit(cover.EvBadAddrSpeculative)
			}
			e.completeAt = pool.issue(unit, m.now)
			m.toCompletions(e)
			return true
		}
		// The load holds its unit until the cache responds.
		pool.issue(unit, m.now)
		pool.hold(unit, e, m.now)
		m.retain(e)
		e.where |= inPendingLoads
		m.pendingLoads = append(m.pendingLoads, e.idx)
		return true

	case isa.ClassStore:
		va := isa.EffAddr(a, e.inst.Imm)
		e.addr = m.physAddr(e.thread, va)
		e.addrValid = true
		e.storeData = bv // FmtB: src[1] is rs2, the store data
		// SW must land in the data segment, FSTW in the flag segment —
		// the same rule funcsim enforces, so the invariant checker's slot
		// containment assertion holds for every non-bad store. badAddr is
		// never consulted on timing paths (only commit/drain), so marking
		// is timing-neutral.
		bad := (va & 3) != 0
		if op == isa.FSTW {
			bad = bad || !loader.IsFlagAddr(va)
		} else {
			bad = bad || !loader.IsDataAddr(va)
		}
		if bad {
			e.badAddr = true
			if m.cov != nil {
				m.cov.Hit(cover.EvBadAddrSpeculative)
			}
		}
		e.completeAt = pool.issue(unit, m.now)
		m.storeBuf = append(m.storeBuf, m.newStoreOp(e))
		m.toCompletions(e)
		if m.cov != nil && len(m.storeBuf) == m.cfg.StoreBuffer {
			m.cov.Hit(cover.EvStoreBufferSaturated)
		}
		return true

	case isa.ClassSync:
		va := isa.EffAddr(a, e.inst.Imm)
		e.addr = m.physAddr(e.thread, va)
		e.addrValid = true
		if !loader.IsFlagAddr(va) || (va&3) != 0 {
			e.badAddr = true
			e.result = 0
			if m.cov != nil {
				m.cov.Hit(cover.EvBadAddrSpeculative)
			}
		} else if op == isa.FAI {
			v, err := m.sync.FetchAdd(e.addr)
			if err != nil {
				// Unreachable: the address was validated above. A rejection
				// here means the model contradicts the controller.
				m.failf(FaultInternal, "issue", e.thread, e.pc,
					"sync controller rejected validated FAI address %#x: %v", e.addr, err)
			}
			e.result = v
			if m.cov != nil {
				m.covFAIObserve(e.thread, e.addr)
			}
		} else { // FLDW
			v, err := m.sync.Read(e.addr)
			if err != nil {
				m.failf(FaultInternal, "issue", e.thread, e.pc,
					"sync controller rejected validated FLDW address %#x: %v", e.addr, err)
			}
			e.result = v
			if m.cov != nil {
				m.covFLDWObserve(e.thread, e.addr, v)
			}
		}
		e.completeAt = pool.issue(unit, m.now)
		m.toCompletions(e)
		return true

	case isa.ClassCT:
		m.resolveCT(e, a)
		e.completeAt = pool.issue(unit, m.now)
		m.toCompletions(e)
		return true
	}

	// Computational classes: the result is a pure function of operands
	// (TID and NTH read machine identity instead).
	switch op {
	case isa.TID:
		// Virtual thread identity: a thread's rank within its slot's
		// group, so an SPMD program partitions its own group's work
		// identically whether it runs solo or inside a mix.
		e.result = uint32(m.vtid[e.thread])
	case isa.NTH:
		e.result = uint32(m.vnth[e.thread])
	case isa.NOP:
		e.result = 0
	default:
		e.result = isa.EvalOp(op, a, bv)
	}
	e.completeAt = pool.issue(unit, m.now)
	m.toCompletions(e)
	return true
}

// syncHeld consults the fault schedule for a sync op about to issue and
// reports whether it holds the op this cycle. The controller may hold
// the grant (delayed lock grant), and an FLDW grant may arrive as a
// spurious wakeup — the thread reads the flag, discards the value, and
// retries a few cycles later. Timing-only: the retry's read supplies
// the architectural result. FAI is never woken spuriously (its
// read-modify-write must execute exactly once).
func (m *Machine) syncHeld(e *suEntry) bool {
	if e.syncHoldUntil > m.now {
		return true
	}
	op := e.inst.Op
	addr := isa.EffAddr(e.src[0].value, e.inst.Imm)
	pa := m.physAddr(e.thread, addr)
	// Only a valid virtual flag address reaches the controller: it sees
	// physical addresses, and its slot masking would accept a stray
	// wrong-path address that lands in another slot's window.
	valid := loader.IsFlagAddr(addr) && (addr&3) == 0
	if valid && !e.syncRolled {
		e.syncRolled = true
		if d := m.sync.GrantDelay(m.now, pa, op == isa.FAI); d > 0 {
			e.syncHoldUntil = m.now + d
			if m.Trace != nil {
				m.trace("sync hold %v for %d cycles (injected)", e, d)
			}
			return true
		}
	}
	if op == isa.FLDW && !e.syncWoken {
		e.syncWoken = true
		if m.cfg.Injector.SpuriousWakeup(m.now, e.tag) {
			m.stats.Faults.Add(ChanSyncWakeup)
			if valid {
				_, _ = m.sync.Read(pa) // woken early: read and discard
			}
			e.syncHoldUntil = m.now + spuriousWakeupBackoff
			if m.Trace != nil {
				m.trace("spurious wakeup %v (injected)", e)
			}
			return true
		}
	}
	return false
}

// resolveCT computes a control transfer's actual outcome (visible at
// writeback, when mispredict recovery runs).
func (m *Machine) resolveCT(e *suEntry, rs1 uint32) {
	switch {
	case e.inst.Op.IsBranch():
		e.actualTaken = isa.BranchTaken(e.inst.Op, e.src[0].value, e.src[1].value)
		if e.actualTaken {
			e.actualTarget = isa.CTTarget(e.inst, e.pc, 0)
		}
	case e.inst.Op == isa.JAL:
		e.result = e.pc + 4
		e.actualTaken = true
		e.actualTarget = isa.CTTarget(e.inst, e.pc, 0)
	case e.inst.Op == isa.JALR:
		e.result = e.pc + 4
		e.actualTaken = true
		e.actualTarget = isa.CTTarget(e.inst, e.pc, rs1)
	case e.inst.Op == isa.HALT:
		// No redirect; committing it retires the thread.
	}
}

// waitingStoresBelow counts the un-issued stores (other than e itself)
// in e's block and every block below it — the stores whose buffer slots
// must stay reservable for the machine to keep draining. Per block this
// is a popcount of waiting ∩ store-class bits; e itself is a waiting
// store at or below its own block, hence the -1.
func (m *Machine) waitingStoresBelow(e *suEntry) int {
	n := 0
	for _, b := range m.su {
		w := bsGroup(m.waitBits, b.bi)
		if w != 0 {
			n += bits.OnesCount64(w & (bsGroup(m.swBits, b.bi) | bsGroup(m.fstwBits, b.bi)))
		}
		if b == e.blk {
			break
		}
	}
	return n - 1
}

// olderUnresolvedCT reports whether any older same-thread control
// transfer in the SU has not resolved yet. The per-thread unresolved-CT
// counter gates the scan (zero for every thread between branches).
func (m *Machine) olderUnresolvedCT(e *suEntry) bool {
	if m.ctUnres[e.thread] == 0 {
		return false
	}
	for wi, w := range m.threadBits[e.thread] {
		for w != 0 {
			pos := int32((wi << 6) + bits.TrailingZeros64(w))
			w &= w - 1
			c := &m.ents[m.entryAt(pos)]
			if c.tag < e.tag && c.inst.Op.IsCT() && c.state != stDone {
				return true
			}
		}
	}
	return false
}

// forwardFromStore finds the youngest older same-thread store to the
// load's address. The caller decides whether its value may forward (any
// aliasing store under the StoreForwarding extension; only a same-block
// store under the paper's restricted policy — the one case that would
// otherwise deadlock block-granularity commit). blocked=true means an
// older store's address or data is still unknown, so the load cannot
// issue yet either way. Candidates are collected from the live-SW
// bitset and the store buffer, then tag-sorted, so the walk order is
// age order regardless of arena layout; the per-thread pending-SW
// counter skips the whole function for store-free threads.
func (m *Machine) forwardFromStore(e *suEntry, addr uint32) (value uint32, src *suEntry, blocked bool) {
	if m.swPend[e.thread] == 0 {
		return 0, nil, false
	}
	cands := m.fwdCands[:0]
	tb := m.threadBits[e.thread]
	for wi, w := range m.swBits {
		g := w & tb[wi]
		for g != 0 {
			pos := int32((wi << 6) + bits.TrailingZeros64(g))
			g &= g - 1
			si := m.entryAt(pos)
			if m.ents[si].tag < e.tag {
				cands = append(cands, si)
			}
		}
	}
	// Committed stores have left the SU but may still be draining.
	for _, soi := range m.storeBuf {
		so := &m.sops[soi]
		s := &m.ents[so.entry]
		if so.committed && !so.drained && s.thread == e.thread &&
			s.tag < e.tag && s.inst.Op == isa.SW {
			cands = append(cands, so.entry)
		}
	}
	m.fwdCands = cands
	m.sortIdxByTagDesc(cands)
	for _, ci := range cands {
		s := &m.ents[ci]
		saddr := s.addr
		if !s.addrValid {
			if !s.src[0].ready {
				return 0, nil, true // address unknown: cannot disambiguate
			}
			// Same thread as the load, so translation is the same constant
			// offset applied to the caller's addr.
			saddr = m.physAddr(s.thread, isa.EffAddr(s.src[0].value, s.inst.Imm))
		}
		if saddr != addr {
			continue
		}
		if s.addrValid {
			return s.storeData, s, false // issued: data already latched
		}
		if s.src[1].ready {
			return s.src[1].value, s, false
		}
		return 0, nil, true // aliasing store's data not produced yet
	}
	return 0, nil, false
}

// olderPendingFlagStore reports whether an older same-thread FSTW has
// not yet drained to the synchronization controller (still in the SU or
// the store buffer). The per-thread pending-FSTW counter gates both
// scans.
func (m *Machine) olderPendingFlagStore(e *suEntry) bool {
	if m.fstwPend[e.thread] == 0 {
		return false
	}
	tb := m.threadBits[e.thread]
	for wi, w := range m.fstwBits {
		g := w & tb[wi]
		for g != 0 {
			pos := int32((wi << 6) + bits.TrailingZeros64(g))
			g &= g - 1
			if m.ents[m.entryAt(pos)].tag < e.tag {
				return true
			}
		}
	}
	for _, soi := range m.storeBuf {
		so := &m.sops[soi]
		s := &m.ents[so.entry]
		if !so.drained && s.thread == e.thread &&
			s.tag < e.tag && s.inst.Op == isa.FSTW {
			return true
		}
	}
	return false
}

// olderUnresolvedSync reports whether an older same-thread sync
// primitive (FLDW/FAI) is still in flight. The per-thread undone-sync
// counter keeps this free for programs (and phases) with no sync ops.
func (m *Machine) olderUnresolvedSync(e *suEntry) bool {
	if m.syncUndone[e.thread] == 0 {
		return false
	}
	for wi, w := range m.threadBits[e.thread] {
		for w != 0 {
			pos := int32((wi << 6) + bits.TrailingZeros64(w))
			w &= w - 1
			c := &m.ents[m.entryAt(pos)]
			if c.tag < e.tag && c.inst.Op.FUClass() == isa.ClassSync && c.state != stDone {
				return true
			}
		}
	}
	return false
}

// serviceLoads retries pending loads against the cache, oldest first.
// A hit schedules the result and frees the load unit. All of a cycle's
// retries go to the cache as one batched call (cache.ReadMany), which
// hoists the blocked-refill fast path out of the per-load work while
// preserving per-request semantics and order exactly.
func (m *Machine) serviceLoads() {
	if m.fault != nil || len(m.pendingLoads) == 0 {
		return
	}
	pool := &m.pools[isa.ClassLoad]
	live := m.pendingLoads[:0]
	reqs := m.loadReqs[:0]
	for _, ei := range m.pendingLoads {
		e := &m.ents[ei]
		if e.squashed {
			pool.release(e.fuUnit, m.now)
			m.sqPend--
			e.where &^= inPendingLoads
			m.release(e)
			continue
		}
		live = append(live, ei)
		reqs = append(reqs, cache.ReadReq{Addr: e.addr, Count: !e.counted})
	}
	m.loadReqs = reqs
	m.dcache.ReadMany(m.now, reqs)
	remaining := live[:0]
	for i, ei := range live {
		e := &m.ents[ei]
		e.counted = true
		if reqs[i].Res != cache.Hit {
			remaining = append(remaining, ei)
			continue
		}
		e.result = reqs[i].Val
		e.completeAt = m.now + pool.latency
		e.where = e.where&^inPendingLoads | inCompletions
		m.completions = append(m.completions, ei)
		pool.release(e.fuUnit, m.now)
	}
	m.pendingLoads = remaining
}

// drainStores retires at most one committed store per cycle from the
// store buffer to the cache (or the sync controller for FSTW).
func (m *Machine) drainStores() {
	if m.fault != nil || len(m.drainQueue) == 0 {
		return
	}
	so := &m.sops[m.drainQueue[0]]
	e := &m.ents[so.entry]
	if e.badAddr {
		m.failMem("drain", e, "%v committed an illegal store address", e.inst)
		return
	}
	if e.inst.Op == isa.FSTW {
		if err := m.sync.Write(e.addr, e.storeData); err != nil {
			// Unreachable: badAddr covers segment violations at issue.
			m.failf(FaultInternal, "drain", e.thread, e.pc,
				"sync controller rejected validated FSTW address %#x: %v", e.addr, err)
			return
		}
		m.fstwPend[e.thread]--
	} else {
		res := m.dcache.Write(e.addr, e.storeData, m.now, !so.counted)
		so.counted = true
		if res != cache.Hit { // miss or busy: head-of-line retry next cycle
			if m.cov != nil {
				m.cov.Hit(cover.EvStoreDrainBlocked)
			}
			return
		}
		m.swPend[e.thread]--
	}
	so.drained = true
	m.popDrainQueue()
	m.removeFromStoreBuf(so.idx)
	m.freeStoreOp(so)
	m.lastProgress = m.now
}

func (m *Machine) removeFromStoreBuf(target int32) {
	for i, soi := range m.storeBuf {
		if soi == target {
			m.storeBuf = append(m.storeBuf[:i], m.storeBuf[i+1:]...)
			return
		}
	}
}
