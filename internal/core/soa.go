package core

import (
	"math/bits"

	"repro/internal/cache"
	"repro/internal/isa"
)

// Struct-of-arrays scoreboards. Every SU entry owns one bit position,
// which is also its index in the entry arena, fixed for as long as its
// block sits in the SU:
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
// groups, or compares tags per candidate, so recycling order is never
// observable. Occupancy counts are popcounts of these bitsets.
// Alongside them, a few incremental counters hold facts no bitset
// holds (blocks with every entry done, entries not yet done, and
// stores committed but not drained); the invariant checker re-derives
// every bitset and counter from the entry arrays each time it runs
// (-paranoid), so the mirrors cannot drift silently.

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

// bsCount returns the number of set bits.
func bsCount(bs []uint64) int {
	n := 0
	for _, w := range bs {
		n += bits.OnesCount64(w)
	}
	return n
}

// bsAny reports whether any bit is set.
func bsAny(bs []uint64) bool {
	for _, w := range bs {
		if w != 0 {
			return true
		}
	}
	return false
}

// initSoA sizes the arenas, bitsets, and counters for the configured
// SU geometry. Every arena is fixed here: suCap+1 blocks (one of
// margin) with BlockSize entries each, and StoreBuffer store ops.
func (m *Machine) initSoA() {
	nblocks := m.suCap + 1
	nents := nblocks * BlockSize
	nwords := (nents + 63) / 64
	m.blocks = make([]block, nblocks)
	m.blockFree = make([]int32, nblocks)
	for i := range m.blocks {
		m.blocks[i].bi = int32(i)
		m.blockFree[i] = int32(nblocks - 1 - i)
	}
	m.ents = make([]suEntry, nents)
	m.sops = make([]storeOp, m.cfg.StoreBuffer)
	m.storeOpFree = make([]int32, len(m.sops))
	for i := range m.storeOpFree {
		m.storeOpFree[i] = int32(len(m.sops) - 1 - i)
	}

	m.liveBits = make([]uint64, nwords)
	m.waitBits = make([]uint64, nwords)
	m.unreadyBits = make([]uint64, nwords)
	m.swBits = make([]uint64, nwords)
	m.fstwBits = make([]uint64, nwords)
	m.threadBits = make([][]uint64, m.cfg.Threads)
	for t := range m.threadBits {
		m.threadBits[t] = make([]uint64, nwords)
	}

	m.syncUndone = make([]int32, m.cfg.Threads)
	m.ctUnres = make([]int32, m.cfg.Threads)
	m.fstwPend = make([]int32, m.cfg.Threads)
	m.swPend = make([]int32, m.cfg.Threads)

	// Queues and scratch lists, preallocated to their occupancy bounds so
	// a machine allocates nothing after construction, from its very first
	// cycle on (TestRunAllocFreeMissBound measures fresh machines).
	m.su = make([]*block, 0, m.suCap)
	m.completions = make([]int32, 0, nents)
	m.pendingLoads = make([]int32, 0, nents)
	m.loadReqs = make([]cache.ReadReq, 0, nents)
	m.storeBuf = make([]int32, 0, m.cfg.StoreBuffer)
	m.drainQueue = make([]int32, 0, m.cfg.StoreBuffer)
	m.wbDue = make([]int32, 0, nents)
	for i := range m.regProd {
		m.regProd[i] = -1
	}
}

// suEnter registers a freshly dispatched entry in every scoreboard and
// counter. Called once per entry, after renaming (the unready bit
// depends on the renamed sources).
func (m *Machine) suEnter(e *suEntry) {
	pos := e.idx
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
	if e.class == isa.ClassSync {
		m.syncUndone[e.thread]++
	}
	if e.ct {
		m.ctUnres[e.thread]++
	}
	m.blockOf(e).pending++
}

// noteIssued records e leaving the waiting state (issue succeeded).
func (m *Machine) noteIssued(e *suEntry) {
	bsClear(m.waitBits, e.idx)
	bsClear(m.unreadyBits, e.idx)
}

// noteDone records e's writeback (stIssued -> stDone). The entry's
// block is necessarily still in the SU: a block cannot commit while
// any of its live entries is unfinished.
func (m *Machine) noteDone(e *suEntry) {
	if e.class == isa.ClassSync {
		m.syncUndone[e.thread]--
	}
	if e.ct {
		m.ctUnres[e.thread]--
	}
	b := m.blockOf(e)
	b.pending--
	if b.pending == 0 {
		m.doneBlocks++
	}
}

// noteSquashed updates every scoreboard and counter for a live SU
// entry being marked squashed. The caller flips e.squashed.
func (m *Machine) noteSquashed(e *suEntry) {
	pos := e.idx
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
		if e.class == isa.ClassSync {
			m.syncUndone[e.thread]--
		}
		if e.ct {
			m.ctUnres[e.thread]--
		}
		b := m.blockOf(e)
		b.pending--
		if b.pending == 0 {
			m.doneBlocks++
		}
	}
}

// suExitBlock clears a committed block's scoreboard group, retires its
// entries from the register-producer table, and settles doneBlocks.
// Live entries are all done at this point (commit chose the block);
// committed stores stay forwarding candidates through their buffer
// slots, so swPend/fstwPend are not touched here.
func (m *Machine) suExitBlock(b *block) {
	bi := b.bi
	bsClearGroup(m.liveBits, bi)
	bsClearGroup(m.waitBits, bi)
	bsClearGroup(m.unreadyBits, bi)
	bsClearGroup(m.swBits, bi)
	bsClearGroup(m.fstwBits, bi)
	bsClearGroup(m.threadBits[b.thread], bi)
	es := m.blockEnts(b)
	for s := range es {
		e := &es[s]
		if e.valid && !e.squashed && e.dst >= 0 && m.regProd[e.dst] == e.idx {
			m.regProd[e.dst] = -1
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
		es := m.blockEnts(b)
		for s := range es {
			e := &es[s]
			if e.valid && !e.squashed && e.dst >= 0 {
				m.regProd[e.dst] = e.idx
			}
		}
	}
}
