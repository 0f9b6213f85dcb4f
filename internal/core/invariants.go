package core

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/loader"
)

// CheckInvariants validates the machine's internal consistency; tests
// call it between cycles to catch state corruption early, and
// Config.CheckInvariants (-paranoid) runs it every cycle. It returns
// the first violation found. The checks map to the paper's mechanisms:
// FIFO age ordering and globally unique renaming tags in the SU (§3.3),
// static register partition isolation (§3.2), the 8-entry in-order
// store buffer (§3.6), and selective-squash containment (§3.4);
// flexible-commit legality (§3.5) is re-verified inline in commit. A
// second section re-derives every scoreboard bitset and incremental
// counter from the entry arrays, so the SoA mirrors cannot drift from
// the state they summarize without being caught within one cycle.
func (m *Machine) CheckInvariants() error {
	if len(m.su) > m.suCap {
		return fmt.Errorf("SU holds %d blocks, capacity %d", len(m.su), m.suCap)
	}

	// Tags are unique and strictly increase in SU order; every block is
	// single-threaded; per-thread tags appear in program order.
	seen := map[uint64]bool{}
	byTag := map[uint64]*suEntry{}
	lastTag := uint64(0)
	for bi, b := range m.su {
		if b.thread < 0 || b.thread >= m.cfg.Threads {
			return fmt.Errorf("block %d has thread %d", bi, b.thread)
		}
		for si, ei := range b.entries {
			if ei < 0 {
				continue
			}
			e := &m.ents[ei]
			if !e.valid {
				continue
			}
			if e.blk != b || int(e.slot) != si || e.idx != ei {
				return fmt.Errorf("entry %v back-references block %d slot %d idx %d, found at block %d slot %d idx %d",
					e, e.blk.bi, e.slot, e.idx, b.bi, si, ei)
			}
			if e.thread != b.thread {
				return fmt.Errorf("entry %v in block %d of thread %d", e, bi, b.thread)
			}
			if seen[e.tag] {
				return fmt.Errorf("duplicate tag %d at block %d slot %d", e.tag, bi, si)
			}
			seen[e.tag] = true
			byTag[e.tag] = e
			if e.tag <= lastTag {
				return fmt.Errorf("tag %d out of order after %d", e.tag, lastTag)
			}
			lastTag = e.tag
			if e.tag > m.nextTag {
				return fmt.Errorf("tag %d beyond allocator %d", e.tag, m.nextTag)
			}
			// Register-partition isolation: no register field may reach
			// outside the thread's static partition.
			if r := e.inst.MaxReg(); int(r) >= m.regBudget[e.thread] {
				return fmt.Errorf("%v uses r%d outside the %d-register partition", e, r, m.regBudget[e.thread])
			}
			// Operand tags must reference an older in-flight producer.
			for i := 0; i < e.nsrc; i++ {
				if !e.src[i].ready && e.src[i].tag >= e.tag {
					return fmt.Errorf("%v waits on non-older tag %d", e, e.src[i].tag)
				}
			}
			// Issued memory references must have validated addresses.
			if e.state != stWaiting && e.inst.Op.IsMemRef() && !e.addrValid && !e.squashed {
				return fmt.Errorf("%v issued without an address", e)
			}
			// Slot isolation (heterogeneous mode): every validated
			// physical address must land inside the issuing thread's own
			// 2 MiB slot window, in the segment its opcode names. In a
			// single-slot machine physBase is zero and this reduces to
			// the ordinary segment checks, so it is asserted always, not
			// just when a Mix is loaded.
			if e.addrValid && !e.badAddr {
				rel := e.addr - m.physBase[e.thread]
				if rel >= loader.MemSize {
					return fmt.Errorf("%v address %#x escapes thread %d's slot window", e, e.addr, e.thread)
				}
				switch e.inst.Op {
				case isa.FLDW, isa.FSTW, isa.FAI:
					if !loader.IsFlagAddr(rel) {
						return fmt.Errorf("%v address %#x is outside its slot's flag segment", e, e.addr)
					}
				case isa.LW, isa.SW:
					if !loader.IsDataAddr(rel) {
						return fmt.Errorf("%v address %#x is outside its slot's data segment", e, e.addr)
					}
				}
			}
			// Squash containment: a squashed entry records its squasher,
			// which must be an older CT of the same thread.
			if e.squashed && e.squashedBy != 0 {
				if e.squashedBy >= e.tag {
					return fmt.Errorf("%v squashed by non-older tag %d", e, e.squashedBy)
				}
				if sq, ok := byTag[e.squashedBy]; ok && sq.thread != e.thread {
					return fmt.Errorf("%v squashed across threads by %v", e, sq)
				}
			}
		}
	}

	// Scoreboard claims (maintained in both modes; only scoreboard mode
	// stalls on them): a claimed register must name a live,
	// not-yet-written-back SU entry that writes exactly that physical
	// register, inside its own thread's partition.
	for p, claim := range m.busyReg {
		if claim == 0 {
			continue
		}
		e, ok := byTag[claim-1]
		if !ok {
			return fmt.Errorf("scoreboard claim on phys r%d by tag %d, which is not in the SU", p, claim-1)
		}
		if e.squashed || e.state == stDone || !e.writesReg() {
			return fmt.Errorf("scoreboard claim on phys r%d by %v (squashed=%v)", p, e, e.squashed)
		}
		if p < m.regBase[e.thread] || p >= m.regBase[e.thread]+m.regBudget[e.thread] {
			return fmt.Errorf("scoreboard claim on phys r%d outside thread %d's partition", p, e.thread)
		}
		if want := m.regBase[e.thread] + int(e.inst.Rd); p != want {
			return fmt.Errorf("scoreboard claim on phys r%d but %v writes phys r%d", p, e, want)
		}
	}

	// Store buffer: within capacity; entries are stores; the drain queue
	// holds only committed, undrained operations in commit order.
	if len(m.storeBuf) > m.cfg.StoreBuffer {
		return fmt.Errorf("store buffer holds %d entries, capacity %d", len(m.storeBuf), m.cfg.StoreBuffer)
	}
	for _, soi := range m.storeBuf {
		so := &m.sops[soi]
		se := &m.ents[so.entry]
		if cl := se.inst.Op.FUClass(); cl != isa.ClassStore {
			return fmt.Errorf("non-store %v in store buffer", se)
		}
		if so.drained {
			return fmt.Errorf("drained store %v still buffered", se)
		}
	}
	lastSeq := uint64(0)
	for _, soi := range m.drainQueue {
		so := &m.sops[soi]
		se := &m.ents[so.entry]
		if !so.committed || so.drained {
			return fmt.Errorf("drain queue holds %v (committed=%v drained=%v)",
				se, so.committed, so.drained)
		}
		// Stores drain strictly in commit order (§3.6).
		if so.seq <= lastSeq {
			return fmt.Errorf("drain queue out of commit order: %v (seq %d after %d)",
				se, so.seq, lastSeq)
		}
		lastSeq = so.seq
		// Every queued drain still occupies its store buffer slot.
		found := false
		for _, sb := range m.storeBuf {
			if sb == soi {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("drain queue holds %v with no store buffer slot", se)
		}
	}

	// Completions reference issued, not-yet-done entries.
	for _, ei := range m.completions {
		e := &m.ents[ei]
		if e.state != stIssued && !e.squashed {
			return fmt.Errorf("completion queue holds %v in state %d", e, e.state)
		}
		if (e.where & inCompletions) == 0 {
			return fmt.Errorf("completion queue holds %v without its membership flag", e)
		}
	}
	for _, ei := range m.pendingLoads {
		e := &m.ents[ei]
		if !e.squashed && (e.state != stIssued || e.inst.Op != isa.LW) {
			return fmt.Errorf("pending load list holds %v", e)
		}
		if (e.where & inPendingLoads) == 0 {
			return fmt.Errorf("pending load list holds %v without its membership flag", e)
		}
	}

	// A halted thread must not have a stopped-fetch latch pending.
	if m.latch != nil && m.halted[m.latch.thread] {
		return fmt.Errorf("halted thread %d owns the fetch latch", m.latch.thread)
	}

	return m.checkSoA()
}

// checkSoA re-derives the scoreboard bitsets, the incremental counters,
// and the register-producer table from the ground-truth entry arrays
// and compares them word for word against the incrementally maintained
// mirrors. Any divergence names the first mismatching structure.
func (m *Machine) checkSoA() error {
	nw := len(m.liveBits)
	live := make([]uint64, nw)
	wait := make([]uint64, nw)
	unready := make([]uint64, nw)
	sw := make([]uint64, nw)
	fstw := make([]uint64, nw)
	thr := make([][]uint64, m.cfg.Threads)
	for t := range thr {
		thr[t] = make([]uint64, nw)
	}
	occ, waitCnt, doneBlocks := 0, 0, 0
	occT := make([]int32, m.cfg.Threads)
	syncU := make([]int32, m.cfg.Threads)
	ctU := make([]int32, m.cfg.Threads)
	fstwP := make([]int32, m.cfg.Threads)
	swP := make([]int32, m.cfg.Threads)
	var regProd [isa.NumPhysRegs]int32
	for i := range regProd {
		regProd[i] = -1
	}

	for _, b := range m.su {
		pending := int8(0)
		for _, ei := range b.entries {
			if ei < 0 {
				continue
			}
			e := &m.ents[ei]
			if !e.valid || e.squashed {
				continue
			}
			pos := e.bitPos()
			bsSet(live, pos)
			bsSet(thr[e.thread], pos)
			occ++
			occT[e.thread]++
			if e.state == stWaiting {
				bsSet(wait, pos)
				waitCnt++
				for i := 0; i < e.nsrc; i++ {
					if !e.src[i].ready {
						bsSet(unready, pos)
						break
					}
				}
			}
			switch e.inst.Op {
			case isa.SW:
				bsSet(sw, pos)
				swP[e.thread]++
			case isa.FSTW:
				bsSet(fstw, pos)
				fstwP[e.thread]++
			}
			if e.state != stDone {
				pending++
				if e.inst.Op.FUClass() == isa.ClassSync {
					syncU[e.thread]++
				}
				if e.inst.Op.IsCT() {
					ctU[e.thread]++
				}
			}
			if e.writesReg() {
				if p := m.regBase[e.thread] + int(e.inst.Rd); int(e.inst.Rd) < m.regBudget[e.thread] {
					regProd[p] = ei
				}
			}
		}
		if pending != b.pending {
			return fmt.Errorf("block %d pending counter %d, recount %d", b.bi, b.pending, pending)
		}
		if pending == 0 {
			doneBlocks++
		}
	}
	// Committed, undrained buffered stores extend the per-thread
	// pending-store counts (their entries have left the SU).
	for _, soi := range m.storeBuf {
		so := &m.sops[soi]
		if !so.committed || so.drained {
			continue
		}
		se := &m.ents[so.entry]
		if se.inst.Op == isa.FSTW {
			fstwP[se.thread]++
		} else {
			swP[se.thread]++
		}
	}

	for w := 0; w < nw; w++ {
		switch {
		case live[w] != m.liveBits[w]:
			return fmt.Errorf("liveBits word %d is %#x, recount %#x", w, m.liveBits[w], live[w])
		case wait[w] != m.waitBits[w]:
			return fmt.Errorf("waitBits word %d is %#x, recount %#x", w, m.waitBits[w], wait[w])
		case unready[w] != m.unreadyBits[w]:
			return fmt.Errorf("unreadyBits word %d is %#x, recount %#x", w, m.unreadyBits[w], unready[w])
		case sw[w] != m.swBits[w]:
			return fmt.Errorf("swBits word %d is %#x, recount %#x", w, m.swBits[w], sw[w])
		case fstw[w] != m.fstwBits[w]:
			return fmt.Errorf("fstwBits word %d is %#x, recount %#x", w, m.fstwBits[w], fstw[w])
		}
		for t := range thr {
			if thr[t][w] != m.threadBits[t][w] {
				return fmt.Errorf("threadBits[%d] word %d is %#x, recount %#x", t, w, m.threadBits[t][w], thr[t][w])
			}
		}
	}
	if occ != m.suOcc {
		return fmt.Errorf("suOcc counter %d, recount %d", m.suOcc, occ)
	}
	if waitCnt != m.waitCnt {
		return fmt.Errorf("waitCnt counter %d, recount %d", m.waitCnt, waitCnt)
	}
	if doneBlocks != m.doneBlocks {
		return fmt.Errorf("doneBlocks counter %d, recount %d", m.doneBlocks, doneBlocks)
	}
	for t := 0; t < m.cfg.Threads; t++ {
		switch {
		case occT[t] != m.occByThread[t]:
			return fmt.Errorf("occByThread[%d] counter %d, recount %d", t, m.occByThread[t], occT[t])
		case syncU[t] != m.syncUndone[t]:
			return fmt.Errorf("syncUndone[%d] counter %d, recount %d", t, m.syncUndone[t], syncU[t])
		case ctU[t] != m.ctUnres[t]:
			return fmt.Errorf("ctUnres[%d] counter %d, recount %d", t, m.ctUnres[t], ctU[t])
		case fstwP[t] != m.fstwPend[t]:
			return fmt.Errorf("fstwPend[%d] counter %d, recount %d", t, m.fstwPend[t], fstwP[t])
		case swP[t] != m.swPend[t]:
			return fmt.Errorf("swPend[%d] counter %d, recount %d", t, m.swPend[t], swP[t])
		}
	}

	// Lazily dropped squashed references and held load units.
	sqComp, sqPend := 0, 0
	for _, ei := range m.completions {
		if m.ents[ei].squashed {
			sqComp++
		}
	}
	for _, ei := range m.pendingLoads {
		if m.ents[ei].squashed {
			sqPend++
		}
	}
	if sqComp != m.sqComp {
		return fmt.Errorf("sqComp counter %d, recount %d", m.sqComp, sqComp)
	}
	if sqPend != m.sqPend {
		return fmt.Errorf("sqPend counter %d, recount %d", m.sqPend, sqPend)
	}
	held := 0
	for i := range m.pools[isa.ClassLoad].units {
		if m.pools[isa.ClassLoad].units[i].holder >= 0 {
			held++
		}
	}
	if held != len(m.pendingLoads) {
		return fmt.Errorf("%d load units held, %d loads pending", held, len(m.pendingLoads))
	}

	// The register-producer table must name exactly the newest live
	// writer of each claimed physical register.
	for p := range regProd {
		if regProd[p] != m.regProd[p] {
			return fmt.Errorf("regProd[%d] is %d, recount %d", p, m.regProd[p], regProd[p])
		}
	}
	return nil
}
