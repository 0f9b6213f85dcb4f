package core

import (
	"repro/internal/cover"
	"repro/internal/isa"
)

// commit retires at most one block per cycle. Under FlexibleCommit the
// bottom CommitWindow blocks are examined; a block may commit ahead of a
// stalled older block iff its thread differs from every uncommitted
// block below it (paper §3.5, Figure 2). Committing writes results to
// the register file, releases stores to drain, trains the branch
// predictor, and pops the block so new entries can be made.
func (m *Machine) commit() {
	if m.fault != nil {
		return
	}
	window := m.cfg.CommitWindow
	if m.cfg.CommitPolicy == LowestOnly {
		window = 1
	}
	// Fault injection: shrink the flexible-commit window for this cycle.
	// Shrinking is strictly more conservative than the configured window
	// (every choice it permits the full window also permits), and the
	// floor of 1 keeps bottom-block commit — the paper's baseline scheme
	// — always available, so the perturbation is timing-only.
	if inj := m.cfg.Injector; inj != nil && window > 1 {
		if s := inj.CommitWindowShrink(m.now); s > 0 {
			if s > window-1 {
				s = window - 1
			}
			window -= s
			m.stats.Faults.Add(ChanCommitShrink)
		}
	}
	if window > len(m.su) {
		window = len(m.su)
	}

	// Fast path: with no complete block anywhere in the SU the selection
	// loop cannot choose, so only the no-commit bookkeeping remains.
	// (The injector consult above still ran — its fault count must not
	// depend on this shortcut.)
	if m.doneBlocks == 0 {
		if len(m.su) > 0 {
			m.maskedThread = m.su[0].thread
		} else {
			m.maskedThread = -1
		}
		if len(m.su) == m.suCap {
			m.stats.SUStalls++
			if m.cov != nil {
				m.cov.Hit(cover.EvSUStallFull)
			}
		}
		return
	}

	chosen := -1
	for i := 0; i < window; i++ {
		b := m.su[i]
		if !b.done() {
			continue
		}
		clash := false
		for j := 0; j < i; j++ {
			if m.su[j].thread == b.thread {
				clash = true
				break
			}
		}
		if clash {
			if m.cov != nil {
				m.cov.Hit(cover.EvCommitBlockedClash)
			}
			continue
		}
		chosen = i
		break
	}

	// MaskedRR bookkeeping: the thread stalling the bottom block is
	// masked until that block commits.
	if len(m.su) > 0 && chosen != 0 {
		m.maskedThread = m.su[0].thread
	} else {
		m.maskedThread = -1
	}

	if chosen < 0 {
		if len(m.su) == m.suCap {
			m.stats.SUStalls++
			if m.cov != nil {
				m.cov.Hit(cover.EvSUStallFull)
			}
		}
		return
	}

	m.stats.CommitsPerWin[chosen]++
	if m.cov != nil {
		if chosen == 0 {
			m.cov.Hit(cover.EvCommitBottom)
		} else {
			m.cov.Hit(cover.EvCommitAhead)
			if chosen >= 2 {
				m.cov.Hit(cover.EvCommitAheadDeep)
			}
		}
	}
	b := m.su[chosen]
	// Paranoid mode re-verifies Flexible Result Commit legality against
	// the paper's rule (§3.5) independently of the selection loop above:
	// the chosen block must be complete, inside the window, and its
	// thread must differ from every uncommitted block below it.
	if m.cfg.CheckInvariants {
		switch {
		case !b.done():
			m.failf(FaultInvariant, "commit", b.thread, 0, "chose incomplete block for commit")
		case m.cfg.CommitPolicy == LowestOnly && chosen != 0:
			m.failf(FaultInvariant, "commit", b.thread, 0, "LowestOnly committed from slot %d", chosen)
		case chosen >= m.cfg.CommitWindow:
			m.failf(FaultInvariant, "commit", b.thread, 0, "committed from slot %d outside window %d", chosen, m.cfg.CommitWindow)
		}
		for j := 0; j < chosen; j++ {
			if m.su[j].thread == b.thread {
				m.failf(FaultInvariant, "commit", b.thread, 0,
					"block committed over an older uncommitted block of the same thread (slot %d)", j)
			}
		}
		if m.fault != nil {
			return
		}
	}
	if m.Trace != nil {
		m.trace("commit   t%d block from window slot %d", b.thread, chosen)
	}
	es := m.blockEnts(b)
	for s := range es {
		e := &es[s]
		if !e.valid || e.squashed {
			continue
		}
		m.commitEntry(e)
		if m.fault != nil {
			return // leave the faulting block in place for the dump
		}
	}
	m.suExitBlock(b)
	m.su = append(m.su[:chosen], m.su[chosen+1:]...)
	m.freeBlock(b)
	m.lastProgress = m.now
}

func (m *Machine) commitEntry(e *suEntry) {
	if e.badAddr {
		// The address was illegal when computed; it stayed speculative in
		// case a squash removed it, but the program really committed it —
		// a program error, reported with full attribution.
		m.failMem("commit", e, "%v committed an illegal address (outside its segment, or unaligned)", e.inst)
		return
	}
	if e.dst >= 0 {
		m.regs[e.dst] = e.result
	}
	switch {
	case e.inst.Op == isa.SW || e.inst.Op == isa.FSTW:
		m.commitStore(e)
	case e.inst.Op.IsBranch() || e.inst.Op == isa.JALR:
		correct := e.actualTaken == e.predTaken &&
			(!e.actualTaken || e.actualTarget == e.predTarget)
		m.predFor(e.thread).Update(e.thread, e.pc, e.actualTaken, e.actualTarget, correct)
		m.covBTBTrained(e.thread, e.pc)
	case e.inst.Op == isa.HALT:
		m.halted[e.thread] = true
		m.stats.HaltCycleByThread[e.thread] = m.now
		if m.cov != nil {
			m.cov.Hit(cover.EvCommitHalt)
		}
	}
	m.stats.Committed++
	m.stats.CommittedByThread[e.thread]++
}

// commitStore marks e's store buffer entry committed and queues it for
// draining in commit order, stamping the commit-order sequence the
// invariant checker uses to verify in-order drain.
func (m *Machine) commitStore(e *suEntry) {
	for _, soi := range m.storeBuf {
		so := &m.sops[soi]
		if so.tag == e.tag {
			so.committed = true
			m.storeSeq++
			so.seq = m.storeSeq
			m.drainQueue = append(m.drainQueue, soi)
			return
		}
	}
	m.failf(FaultInternal, "commit", e.thread, e.pc,
		"committed store %v has no store buffer entry", e)
}
