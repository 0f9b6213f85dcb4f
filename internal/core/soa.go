package core

import (
	"math/bits"

	"repro/internal/cache"
	"repro/internal/isa"
)

// Struct-of-arrays scoreboards. Every SU entry owns one bit position,
// fixed for as long as its block sits in the SU:
//
//	pos = block.bi*BlockSize + slot
//
// BlockSize (4) divides 64, so a block's four bits — its "group" —
// never span a word, and a word holds 16 whole blocks. The machine
// keeps one uint64 bitset per predicate the per-cycle scans used to
// re-derive by walking pointers:
//
//	liveBits    valid && !squashed && in the SU
//	waitBits    live && stWaiting (the issue scan's candidates)
//	unreadyBits live && stWaiting && >=1 source operand not ready
//	            (the writeback broadcast's candidates)
//	threadBits  live, per thread (age/alias scans filter by thread)
//	swBits      live SW (store-forwarding candidates)
//	fstwBits    live FSTW (flag-store fence candidates)
//
// Bit order within the arenas is allocation order, NOT age order — age
// logic either walks m.su (whose block order is age order; the tag
// uniqueness/monotonicity invariant pins this) and extracts per-block
// groups, or compares tags per candidate and sorts, so recycling order
// is never observable. Alongside the bitsets, a set of incremental
// counters replaces whole-window tallies; the invariant checker
// re-derives every bitset and counter from the entry arrays each time
// it runs (-paranoid), so the mirrors cannot drift silently.

func bsSet(bs []uint64, pos int32)   { bs[pos>>6] |= 1 << uint(pos&63) }
func bsClear(bs []uint64, pos int32) { bs[pos>>6] &^= 1 << uint(pos&63) }

// bsGroup extracts block bi's 4-bit slot group.
func bsGroup(bs []uint64, bi int32) uint64 {
	return bs[bi>>4] >> uint((bi&15)*4) & 0xF
}

// bsClearGroup clears block bi's 4-bit slot group.
func bsClearGroup(bs []uint64, bi int32) {
	bs[bi>>4] &^= 0xF << uint((bi&15)*4)
}

// initSoA sizes the arenas, bitsets, and counters for the configured
// SU geometry. The block arena is fixed (suCap+1, one slot of margin)
// so *block pointers stay stable; entry and store-op arenas may grow.
func (m *Machine) initSoA() {
	nblocks := m.suCap + 1
	nwords := (nblocks*BlockSize + 63) / 64
	m.blocks = make([]block, nblocks)
	m.blockFree = make([]int32, nblocks)
	for i := range m.blocks {
		m.blocks[i].bi = int32(i)
		m.blockFree[i] = int32(nblocks - 1 - i)
	}
	m.ents = make([]suEntry, 0, m.suCap*BlockSize+m.cfg.StoreBuffer+16)
	m.sops = make([]storeOp, 0, m.cfg.StoreBuffer+4)

	m.liveBits = make([]uint64, nwords)
	m.waitBits = make([]uint64, nwords)
	m.unreadyBits = make([]uint64, nwords)
	m.swBits = make([]uint64, nwords)
	m.fstwBits = make([]uint64, nwords)
	m.threadBits = make([][]uint64, m.cfg.Threads)
	for t := range m.threadBits {
		m.threadBits[t] = make([]uint64, nwords)
	}

	m.occByThread = make([]int32, m.cfg.Threads)
	m.syncUndone = make([]int32, m.cfg.Threads)
	m.ctUnres = make([]int32, m.cfg.Threads)
	m.fstwPend = make([]int32, m.cfg.Threads)
	m.swPend = make([]int32, m.cfg.Threads)

	// Queues and scratch lists, preallocated to their occupancy bounds so
	// a machine allocates nothing after construction — including its very
	// first cycles (TestFastForwardAllocFree measures fresh machines, not
	// warmed ones). Entry-indexed lists are bounded by the entry arena's
	// initial capacity; the rare arena growth beyond it just reallocates.
	entCap := cap(m.ents)
	m.entryFree = make([]int32, 0, entCap)
	m.storeOpFree = make([]int32, 0, cap(m.sops))
	m.su = make([]*block, 0, m.suCap)
	m.completions = make([]int32, 0, entCap)
	m.pendingLoads = make([]int32, 0, entCap)
	m.loadReqs = make([]cache.ReadReq, 0, entCap)
	m.storeBuf = make([]int32, 0, m.cfg.StoreBuffer)
	m.drainQueue = make([]int32, 0, m.cfg.StoreBuffer)
	m.wbDue = make([]int32, 0, entCap)
	m.fwdCands = make([]int32, 0, entCap)
	m.ffBlocked = make([]refusal, 0, m.suCap*BlockSize)
	for i := range m.regProd {
		m.regProd[i] = -1
	}
}

// bitPos returns e's scoreboard bit. Valid only while e's block is in
// the SU (afterwards the bits have already been cleared).
func (e *suEntry) bitPos() int32 { return e.blk.bi*BlockSize + int32(e.slot) }

// entryAt maps a scoreboard bit back to its entry index.
func (m *Machine) entryAt(pos int32) int32 {
	return m.blocks[pos>>2].entries[pos&3]
}

// suEnter registers a freshly dispatched entry in every scoreboard and
// counter. Called once per entry, after renaming (the unready bit
// depends on the renamed sources).
func (m *Machine) suEnter(e *suEntry) {
	pos := e.bitPos()
	bsSet(m.liveBits, pos)
	bsSet(m.waitBits, pos)
	bsSet(m.threadBits[e.thread], pos)
	for i := 0; i < e.nsrc; i++ {
		if !e.src[i].ready {
			bsSet(m.unreadyBits, pos)
			break
		}
	}
	switch e.inst.Op {
	case isa.SW:
		bsSet(m.swBits, pos)
		m.swPend[e.thread]++
	case isa.FSTW:
		bsSet(m.fstwBits, pos)
		m.fstwPend[e.thread]++
	}
	if e.inst.Op.FUClass() == isa.ClassSync {
		m.syncUndone[e.thread]++
	}
	if e.inst.Op.IsCT() {
		m.ctUnres[e.thread]++
	}
	e.blk.pending++
	m.waitCnt++
	m.suOcc++
	m.occByThread[e.thread]++
}

// noteIssued records e leaving the waiting state (issue succeeded).
func (m *Machine) noteIssued(e *suEntry) {
	pos := e.bitPos()
	bsClear(m.waitBits, pos)
	bsClear(m.unreadyBits, pos)
	m.waitCnt--
}

// noteDone records e's writeback (stIssued -> stDone). The entry's
// block is necessarily still in the SU: a block cannot commit while
// any of its live entries is unfinished.
func (m *Machine) noteDone(e *suEntry) {
	if e.inst.Op.FUClass() == isa.ClassSync {
		m.syncUndone[e.thread]--
	}
	if e.inst.Op.IsCT() {
		m.ctUnres[e.thread]--
	}
	b := e.blk
	b.pending--
	if b.pending == 0 {
		m.doneBlocks++
	}
}

// noteSquashed updates every scoreboard and counter for a live SU
// entry being marked squashed. The caller flips e.squashed.
func (m *Machine) noteSquashed(e *suEntry) {
	pos := e.bitPos()
	bsClear(m.liveBits, pos)
	bsClear(m.waitBits, pos)
	bsClear(m.unreadyBits, pos)
	bsClear(m.threadBits[e.thread], pos)
	switch e.inst.Op {
	case isa.SW:
		bsClear(m.swBits, pos)
		m.swPend[e.thread]--
	case isa.FSTW:
		bsClear(m.fstwBits, pos)
		m.fstwPend[e.thread]--
	}
	if e.state != stDone {
		if e.inst.Op.FUClass() == isa.ClassSync {
			m.syncUndone[e.thread]--
		}
		if e.inst.Op.IsCT() {
			m.ctUnres[e.thread]--
		}
		b := e.blk
		b.pending--
		if b.pending == 0 {
			m.doneBlocks++
		}
	}
	if e.state == stWaiting {
		m.waitCnt--
	}
	m.suOcc--
	m.occByThread[e.thread]--
	if (e.where & inCompletions) != 0 {
		m.sqComp++
	}
	if (e.where & inPendingLoads) != 0 {
		m.sqPend++
	}
}

// suExitBlock clears a committed block's scoreboard group and settles
// the counters for its retiring entries. Live entries are all done at
// this point (commit chose the block); committed stores stay
// forwarding candidates through their buffer slots, so swPend/fstwPend
// are not touched here.
func (m *Machine) suExitBlock(b *block) {
	bi := b.bi
	n := int32(bits.OnesCount64(bsGroup(m.liveBits, bi)))
	m.suOcc -= int(n)
	m.occByThread[b.thread] -= n
	bsClearGroup(m.liveBits, bi)
	bsClearGroup(m.waitBits, bi)
	bsClearGroup(m.unreadyBits, bi)
	bsClearGroup(m.swBits, bi)
	bsClearGroup(m.fstwBits, bi)
	bsClearGroup(m.threadBits[b.thread], bi)
	for _, ei := range b.entries {
		if ei < 0 {
			continue
		}
		e := &m.ents[ei]
		if e.valid && !e.squashed && e.writesReg() {
			if p := m.physReg(e.thread, e.inst.Rd); p >= 0 && m.regProd[p] == e.idx {
				m.regProd[p] = -1
			}
		}
	}
	if b.pending == 0 {
		m.doneBlocks--
	}
}

// rebuildRegProd recomputes thread t's slice of the register-producer
// table from the SU after a squash invalidated an unknown subset of
// it. Oldest-to-newest with overwrite leaves the newest live writer,
// exactly what the associative rename lookup wants.
func (m *Machine) rebuildRegProd(t int) {
	base, n := m.regBase[t], m.regBudget[t]
	for p := base; p < base+n; p++ {
		m.regProd[p] = -1
	}
	for _, b := range m.su {
		if b.thread != t {
			continue
		}
		for _, ei := range b.entries {
			if ei < 0 {
				continue
			}
			e := &m.ents[ei]
			if e.valid && !e.squashed && e.writesReg() {
				if p := m.physReg(t, e.inst.Rd); p >= 0 {
					m.regProd[p] = e.idx
				}
			}
		}
	}
}
