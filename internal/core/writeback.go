package core

import (
	"math/bits"

	"repro/internal/cover"
	"repro/internal/isa"
)

// writeback retires up to WritebackWidth completed executions into the
// SU: results update matching tags (waking dependents), and resolved
// control transfers trigger selective mispredict recovery.
func (m *Machine) writeback() {
	if m.fault != nil || len(m.completions) == 0 {
		return
	}
	// Gather completions due this cycle, oldest first for determinism
	// (and so an older mispredict squashes younger CTs before they act).
	due := m.wbDue[:0]
	rest := m.completions[:0]
	for _, ei := range m.completions {
		e := &m.ents[ei]
		if e.squashed {
			continue // dropped; its block slot is a hole
		}
		if e.completeAt <= m.now {
			// Fault injection: hold the result off the writeback bus for a
			// few extra cycles, consulting the schedule once per entry.
			if inj := m.cfg.Injector; inj != nil && !e.wbDelayed {
				e.wbDelayed = true
				if d := inj.WritebackDelay(m.now, e.tag); d > 0 {
					m.stats.Faults.Add(ChanWritebackDelay)
					e.completeAt = m.now + d
					rest = append(rest, ei)
					continue
				}
			}
			due = append(due, ei)
		} else {
			rest = append(rest, ei)
		}
	}
	m.wbDue = due
	m.sortIdxByTag(due)
	if len(due) > m.cfg.WritebackWidth {
		rest = append(rest, due[m.cfg.WritebackWidth:]...)
		due = due[:m.cfg.WritebackWidth]
		m.hit(cover.EvWritebackSaturated)
	}
	m.completions = rest

	for _, ei := range due {
		e := &m.ents[ei]
		if e.squashed {
			continue // squashed by an older CT written back just before
		}
		e.state = stDone
		e.wbCycle = m.now
		m.noteDone(e)
		m.observe(cover.KindWriteback, e, uint64(e.result), 0)
		if e.dst >= 0 {
			m.broadcast(e)
			if m.busyReg[e.dst] == e.tag+1 {
				m.busyReg[e.dst] = 0
			}
		}
		if e.ct {
			m.handleResolvedCT(e)
		}
	}
}

// broadcast delivers e's result to every waiting operand with its tag.
// Only same-thread waiting entries with an unready source can match
// (rename construction: an operand's tag always names a same-thread
// producer), so the scan is the unready ∩ thread bitset — a handful of
// word operations on the common all-ready cycle instead of a walk of
// the whole window.
func (m *Machine) broadcast(e *suEntry) {
	readyAt := m.now
	if !m.cfg.Bypassing {
		readyAt++
	}
	tb := m.threadBits[e.thread]
	for wi, uw := range m.unreadyBits {
		g := uw & tb[wi]
		for g != 0 {
			pos := int32((wi << 6) + bits.TrailingZeros64(g))
			g &= g - 1
			w := &m.ents[pos]
			still := false
			for i := 0; i < w.nsrc; i++ {
				if !w.src[i].ready {
					if w.src[i].tag == e.tag {
						w.src[i] = operand{ready: true, value: e.result, readyAt: readyAt}
					} else {
						still = true
					}
				}
			}
			if !still {
				bsClear(m.unreadyBits, pos)
			}
		}
	}
}

// handleResolvedCT checks a control transfer against its fetch-time
// prediction and performs selective recovery on a mispredict: only
// younger entries of the same thread are discarded (paper §3.4).
func (m *Machine) handleResolvedCT(e *suEntry) {
	if e.inst.Op == isa.HALT {
		return
	}
	kind := cover.KindMispredict
	if e.actualTaken == e.predTaken && (!e.actualTaken || e.actualTarget == e.predTarget) {
		// Fault injection: force a correctly predicted CT through the full
		// recovery path anyway. The redirect target is the true next PC,
		// so the squash-and-refetch is timing-only.
		if inj := m.cfg.Injector; inj == nil || !inj.SpuriousSquash(m.now, e.tag) {
			return
		}
		m.stats.Faults.Add(ChanSpuriousSquash)
		kind = cover.KindSpuriousSquash
	} else {
		m.stats.Mispredicts++
	}
	taken := uint64(0)
	if e.actualTaken {
		taken = 1
	}
	m.observe(kind, e, uint64(e.actualTarget), taken)
	m.squashYounger(e)
	// Redirect the thread; the corrected PC is visible to fetch this
	// cycle (the IU receives the resolution on the writeback bus).
	if e.actualTaken {
		m.pc[e.thread] = e.actualTarget
	} else {
		m.pc[e.thread] = e.pc + 4
	}
	// A squashed HALT must not keep the thread's fetch stopped.
	if m.reviveFetch(e.thread) {
		m.hit(cover.EvSquashRevivedFetch)
	}
}

// reviveFetch clears a thread's HALT fetch stop after a squash, and
// reports whether there was one.
func (m *Machine) reviveFetch(t int) bool {
	stopped := m.fetchStopped[t]
	m.fetchStopped[t] = false
	return stopped
}

// squashYounger discards all younger same-thread entries: SU entries,
// the fetch latch, store buffer slots, and scoreboard claims. The
// register-producer table's slice for the thread is rebuilt afterwards
// (a squash invalidates an unknown subset of it).
func (m *Machine) squashYounger(ct *suEntry) {
	survivors, spared := 0, false
	for _, b := range m.su {
		if b.thread != ct.thread {
			spared = spared || bsGroup(m.liveBits, b.bi) != 0
			continue
		}
		es := m.blockEnts(b)
		for s := range es {
			e := &es[s]
			if !e.valid || e.squashed {
				continue
			}
			if e.tag <= ct.tag {
				survivors++
				continue
			}
			m.noteSquashed(e)
			e.squashed = true
			// Record the squasher; the invariant checker verifies
			// containment (same thread, older tag) from this.
			e.squashedBy = ct.tag
			m.stats.Squashed++
			if e.dst >= 0 && m.busyReg[e.dst] == e.tag+1 {
				m.busyReg[e.dst] = 0
			}
		}
	}
	// The squashing CT itself is among the survivors; >= BlockSize
	// means at least a block's worth of older same-thread work was
	// selectively spared.
	if survivors >= BlockSize {
		m.hit(cover.EvSquashSurvivors)
	}
	if spared {
		m.hit(cover.EvSquashSparesOthers)
	}
	// Uncommitted stores by squashed entries free their buffer slots:
	// those of the squashing thread younger than the CT.
	keep := m.storeBuf[:0]
	for _, soi := range m.storeBuf {
		so := &m.sops[soi]
		if !so.committed && so.thread == ct.thread && so.tag > ct.tag {
			m.hit(cover.EvSquashKilledStore)
			m.freeStoreOp(so)
			continue
		}
		keep = append(keep, soi)
	}
	m.storeBuf = keep
	// The latch, if it holds this thread, is younger than any SU entry.
	if m.latch != nil && m.latch.thread == ct.thread {
		m.hit(cover.EvSquashKilledLatch)
		m.latch = nil
	}
	m.rebuildRegProd(ct.thread)
	// Pending loads and completions drop squashed entries lazily.
}
