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
// issue candidates cost a word test and blocks with no waiting entries
// cost one shift.
//
// Once a store is refused a buffer slot, every younger store is
// refused for the rest of the cycle without a verdict, and each such
// refusal is still counted. Nothing in the scan can undo the first
// refusal: issuing only takes slots, and the refused store stays
// waiting, so every younger store's reservation counts at least the
// waiting stores the refused one counted, plus the refused store
// itself when it lies in a later block.
func (m *Machine) issue() {
	if m.fault != nil || !bsAny(m.waitBits) {
		return
	}
	storeFull := false // a store was refused a buffer slot this cycle
	issued := 0
scan:
	for _, b := range m.su {
		g := bsGroup(m.waitBits, b.bi)
		for g != 0 {
			s := bits.TrailingZeros64(g)
			g &= g - 1
			if issued >= m.cfg.IssueWidth {
				break scan
			}
			e := &m.ents[b.bi*BlockSize+int32(s)]
			if !e.ready(m.now) {
				continue
			}
			if e.class == isa.ClassStore && storeFull {
				m.noteRefusal(refStoreFull)
				m.observe(cover.KindRefusal, e, uint64(refStoreFull), 0)
				continue
			}
			if m.tryIssue(e, &storeFull) {
				m.observe(cover.KindIssue, e, uint64(e.class), uint64(e.fuUnit))
				issued++
			}
		}
	}
	if issued >= m.cfg.IssueWidth {
		m.hit(cover.EvIssueWidthSaturated)
	}
}

// spuriousWakeupBackoff is how many cycles an FLDW retries after an
// injected spurious wakeup discarded its delivered value.
const spuriousWakeupBackoff = 4

// toCompletions moves an issued entry onto the completion queue.
func (m *Machine) toCompletions(e *suEntry) {
	m.completions = append(m.completions, e.idx)
}

// refusal is why a ready waiting entry does not issue, named by its
// coverage event.
type refusal = cover.Event

const (
	refNone        = cover.NumEvents               // the entry issues
	refSyncOrder   = cover.EvLoadBlockedSyncOrder  // load behind an older unresolved sync primitive
	refAlias       = cover.EvLoadBlockedAlias      // load behind an older store of unknown address or data
	refCrossAlias  = cover.EvLoadBlockedCrossAlias // restricted policy: a cross-block alias waits for the drain
	refStoreFull   = cover.EvStoreBufferFull       // the store buffer cannot reserve a slot
	refFAISpec     = cover.EvFAIBlockedSpec        // FAI behind an older unresolved control transfer
	refFlagFence   = cover.EvSyncFencedFlagStore   // sync op behind an older undrained flag store
	refFUExhausted = cover.EvIssueFUExhausted      // every unit of the class is busy
)

// noteRefusal counts one refused issue attempt in the refusal's stat
// counter, where it has one. Its callers report the refusal record.
func (m *Machine) noteRefusal(r refusal) {
	switch r {
	case refSyncOrder, refAlias, refCrossAlias:
		m.stats.LoadBlocked++
	case refStoreFull:
		m.stats.StoreBufferFull++
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

// issueVerdict decides whether the ready waiting entry e issues this
// cycle: the unit it would take, or the refusal and -1. It changes
// nothing but *ld, which it fills for loads, and *storeFull, which it
// sets when it refuses a store a buffer slot. The unit check comes
// last, after every ordering and resource rule of the entry's class.
func (m *Machine) issueVerdict(e *suEntry, storeFull *bool, ld *loadPath) (refusal, int) {
	class := e.class
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
		// An older store to the same address supplies the value. With the
		// StoreForwarding extension any store forwards. Under the paper's
		// restricted policy only a store in the load's own commit block
		// may forward — without that, a same-block store→load alias
		// deadlocks (the load waits for the drain, the drain waits for
		// commit, commit waits for the load); a cross-block alias waits
		// for the drain as the paper says.
		switch {
		case m.forwardFromStore(e, ld):
			return refAlias, -1
		case ld.fwd && !m.cfg.StoreForwarding && !ld.sameBlock:
			return refCrossAlias, -1
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
		// Fault injection may hold some slots for a cycle (m.sbHeld),
		// capped so the effective buffer never drops below BlockSize and
		// the reservation argument above still goes through.
		if m.cfg.StoreBuffer-len(m.storeBuf)-m.sbHeld <= m.waitingStoresBelow(e) {
			*storeFull = true
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
	if unit := m.pools[class].tryAcquire(m.now); unit >= 0 {
		return refNone, unit
	}
	return refFUExhausted, -1
}

// tryIssue issues e if its verdict allows, and begins execution.
// Reports whether the instruction left the window. It sets *storeFull
// when it refuses a store a buffer slot.
func (m *Machine) tryIssue(e *suEntry, storeFull *bool) bool {
	op := e.inst.Op
	class := e.class
	var ld loadPath
	ref, unit := m.issueVerdict(e, storeFull, &ld)
	// A sync op that passed its ordering rules asks the controller for
	// its grant before taking a unit, and fault injection may hold it.
	if (ref == refNone || ref == refFUExhausted) && class == isa.ClassSync &&
		m.cfg.Injector != nil && m.syncHeld(e) {
		return false
	}
	if ref != refNone {
		m.noteRefusal(ref)
		m.observe(cover.KindRefusal, e, uint64(ref), 0)
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
			if ld.sameBlock {
				m.hit(cover.EvLoadForwardSameBlock)
			} else {
				m.hit(cover.EvLoadForwardCross)
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
			m.hit(cover.EvBadAddrSpeculative)
			e.completeAt = pool.issue(unit, m.now)
			m.toCompletions(e)
			return true
		}
		// The load holds its unit until the cache responds.
		pool.issue(unit, m.now)
		pool.hold(unit, e, m.now)
		m.pendingLoads = append(m.pendingLoads, e.idx)
		return true

	case isa.ClassStore:
		va := isa.EffAddr(a, e.inst.Imm)
		e.addr = m.physAddr(e.thread, va)
		e.addrValid = true
		// SW must land in the data segment, FSTW in the flag segment —
		// the same rule funcsim enforces, so the invariant checker's slot
		// containment assertion holds for every non-bad store. badAddr is
		// never consulted on timing paths (only at commit), so marking is
		// timing-neutral.
		bad := (va & 3) != 0
		if op == isa.FSTW {
			bad = bad || !loader.IsFlagAddr(va)
		} else {
			bad = bad || !loader.IsDataAddr(va)
		}
		if bad {
			e.badAddr = true
			m.hit(cover.EvBadAddrSpeculative)
		}
		e.completeAt = pool.issue(unit, m.now)
		m.storeBuf = append(m.storeBuf, m.newStoreOp(e))
		m.toCompletions(e)
		if len(m.storeBuf) == m.cfg.StoreBuffer {
			m.hit(cover.EvStoreBufferSaturated)
		}
		return true

	case isa.ClassSync:
		va := isa.EffAddr(a, e.inst.Imm)
		e.addr = m.physAddr(e.thread, va)
		e.addrValid = true
		if !loader.IsFlagAddr(va) || (va&3) != 0 {
			e.badAddr = true
			e.result = 0
			m.hit(cover.EvBadAddrSpeculative)
		} else if op == isa.FAI {
			v, err := m.sync.FetchAdd(e.addr)
			if err != nil {
				// Unreachable: the address was validated above. A rejection
				// here means the model contradicts the controller.
				m.failf(FaultInternal, "issue", e.thread, e.pc,
					"sync controller rejected validated FAI address %#x: %v", e.addr, err)
			}
			e.result = v
			m.observe(cover.KindFAI, e, uint64(e.addr), 0)
		} else { // FLDW
			v, err := m.sync.Read(e.addr)
			if err != nil {
				m.failf(FaultInternal, "issue", e.thread, e.pc,
					"sync controller rejected validated FLDW address %#x: %v", e.addr, err)
			}
			e.result = v
			m.observe(cover.KindFLDW, e, uint64(e.addr), uint64(v))
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
			m.observe(cover.KindSyncHold, e, d, 0)
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
			m.observe(cover.KindSpuriousWakeup, e, 0, 0)
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
		if b.bi == e.idx/BlockSize {
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
			c := &m.ents[pos]
			if c.tag < e.tag && c.ct && c.state != stDone {
				return true
			}
		}
	}
	return false
}

// forwardFromStore finds the youngest older same-thread store to the
// load's address and, when it knows the store's data, records it in
// *ld. The caller decides whether the value may forward (any aliasing
// store under the StoreForwarding extension; only a same-block store
// under the paper's restricted policy — the one case that would
// otherwise deadlock block-granularity commit). It reports blocked
// when an older store's address or data is still unknown, so the load
// cannot issue yet either way. The per-thread pending-SW counter skips
// the whole function for store-free threads.
//
// The search is youngest first: the thread's stores in the SU from the
// top block down, then its committed buffered stores in reverse commit
// order. Within a thread blocks commit in order, so every committed
// store is older than the load and than every same-thread store still
// in the SU, and it never shares the load's block.
func (m *Machine) forwardFromStore(e *suEntry, ld *loadPath) (blocked bool) {
	if m.swPend[e.thread] == 0 {
		return false
	}
	for i := len(m.su) - 1; i >= 0; i-- {
		b := m.su[i]
		if b.thread != e.thread {
			continue
		}
		for g := bsGroup(m.swBits, b.bi); g != 0; {
			s := 63 - bits.LeadingZeros64(g)
			g &^= 1 << uint(s)
			c := &m.ents[b.bi*BlockSize+int32(s)]
			if c.tag > e.tag {
				continue // younger than the load
			}
			saddr := c.addr
			if !c.addrValid {
				if !c.src[0].ready {
					return true // address unknown: cannot disambiguate
				}
				// Same thread as the load, so translation is the same
				// constant offset applied to the load's address.
				saddr = m.physAddr(c.thread, isa.EffAddr(c.src[0].value, c.inst.Imm))
			}
			if saddr != ld.addr {
				continue
			}
			// An issued store's data operand was ready at issue.
			if !c.src[1].ready {
				return true // aliasing store's data not produced yet
			}
			ld.fwd, ld.val, ld.sameBlock = true, c.src[1].value, b.bi == e.idx/BlockSize
			return false
		}
	}
	// Committed stores have left the SU but may still be draining.
	for i := len(m.drainQueue) - 1; i >= 0; i-- {
		so := &m.sops[m.drainQueue[i]]
		if so.thread == e.thread && so.inst.Op == isa.SW && so.addr == ld.addr {
			ld.fwd, ld.val = true, so.data
			return false
		}
	}
	return false
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
			if m.ents[pos].tag < e.tag {
				return true
			}
		}
	}
	for _, soi := range m.storeBuf {
		so := &m.sops[soi]
		if so.thread == e.thread && so.tag < e.tag && so.inst.Op == isa.FSTW {
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
			c := &m.ents[pos]
			if c.tag < e.tag && c.class == isa.ClassSync && c.state != stDone {
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
	if so.inst.Op == isa.FSTW {
		if err := m.sync.Write(so.addr, so.data); err != nil {
			// Unreachable: a store whose address was illegal at issue
			// faults at commit and never reaches the drain.
			m.failf(FaultInternal, "drain", so.thread, so.pc,
				"sync controller rejected validated FSTW address %#x: %v", so.addr, err)
			return
		}
		m.fstwPend[so.thread]--
	} else {
		res := m.dcache.Write(so.addr, so.data, m.now, !so.counted)
		so.counted = true
		if res != cache.Hit { // miss or busy: head-of-line retry next cycle
			m.hit(cover.EvStoreDrainBlocked)
			return
		}
		m.swPend[so.thread]--
	}
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
