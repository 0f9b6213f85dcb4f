package core

// Arena allocation for the per-cycle hot path. The steady-state cycle
// loop allocates nothing: scheduling-unit blocks, their entries, and
// store buffer slots all live in per-machine arenas sized at New and
// never grown (TestCycleAllocFree asserts zero allocs/cycle for a warm
// machine, and docs/PERFORMANCE.md records the budgets and the
// layout). Blocks and store slots recycle through index free lists.
//
// An SU entry has one name, its scoreboard bit: slot s of block bi is
// m.ents[bi*BlockSize+s]. Taking a block takes its entries, and an
// entry is free exactly when its block is. Only two kinds of reference
// outlive a block, and each is settled explicitly:
//
//   - A committed store stays in the store buffer until it drains. Its
//     storeOp copies at issue every fact that its readers need, and
//     holds no index into the entry arena.
//   - A squashed entry may still sit on m.completions or
//     m.pendingLoads. Commit frees blocks first in the cycle, and
//     serviceLoads and writeback drop every squashed entry from those
//     queues before dispatch can reuse the block. The -paranoid
//     checker asserts at each cycle's end that every queued index lies
//     in a block resident in the SU.
//
// Because no arena grows, *block, *suEntry and *storeOp pointers stay
// valid for the machine's lifetime. A pointer names a position,
// though, and the position is reused once its block or slot is free.

// newBlock returns a zeroed block. The free list can never be empty
// here: blocks live only in the SU, dispatch runs only when the SU has
// a free slot, and every stage that could leak a block is fault-gated
// (commit frees its block before any later stage can fault the
// machine).
func (m *Machine) newBlock(thread int) *block {
	n := len(m.blockFree)
	bi := m.blockFree[n-1]
	m.blockFree = m.blockFree[:n-1]
	b := &m.blocks[bi]
	*b = block{thread: thread, bi: bi}
	return b
}

// freeBlock recycles a block popped from the SU, and with it its
// entries. A faulted machine stops recycling so the MachineError
// snapshot (and any debugger poking at the wreck) sees frozen state.
func (m *Machine) freeBlock(b *block) {
	if m.fault == nil {
		m.blockFree = append(m.blockFree, b.bi)
	}
}

// blockEnts returns block b's BlockSize entries.
func (m *Machine) blockEnts(b *block) []suEntry {
	i := b.bi * BlockSize
	return m.ents[i : i+BlockSize]
}

// blockOf returns the block that holds entry e.
func (m *Machine) blockOf(e *suEntry) *block { return &m.blocks[e.idx/BlockSize] }

// newStoreOp returns the index of a store buffer slot holding issued
// store e's facts. The free list cannot be empty: the issue-time
// reservation keeps the buffer at or below StoreBuffer slots, the size
// of the arena.
func (m *Machine) newStoreOp(e *suEntry) int32 {
	n := len(m.storeOpFree)
	i := m.storeOpFree[n-1]
	m.storeOpFree = m.storeOpFree[:n-1]
	m.sops[i] = storeOp{
		idx:    i,
		tag:    e.tag,
		thread: e.thread,
		pc:     e.pc,
		inst:   e.inst,
		addr:   e.addr,
		data:   e.src[1].value, // FmtB: src[1] is rs2, the store data
	}
	return i
}

// freeStoreOp recycles a slot (drained, or squash-killed before
// commit).
func (m *Machine) freeStoreOp(so *storeOp) {
	if m.fault == nil {
		m.storeOpFree = append(m.storeOpFree, so.idx)
	}
}

// popDrainQueue removes the head of the drain queue without abandoning
// the backing array's prefix (a plain q = q[1:] walks the array and
// forces append to reallocate — a steady-state allocation).
func (m *Machine) popDrainQueue() {
	copy(m.drainQueue, m.drainQueue[1:])
	m.drainQueue = m.drainQueue[:len(m.drainQueue)-1]
}

// sortIdxByTag orders entry indices by ascending renaming tag. Tags
// are unique, so this is deterministic regardless of collection order;
// insertion sort keeps the hot path allocation-free (sort.Slice's
// reflection header escapes) and the slice here is tiny (the
// completions due in one cycle).
func (m *Machine) sortIdxByTag(es []int32) {
	for i := 1; i < len(es); i++ {
		ei := es[i]
		t := m.ents[ei].tag
		j := i - 1
		for j >= 0 && m.ents[es[j]].tag > t {
			es[j+1] = es[j]
			j--
		}
		es[j+1] = ei
	}
}
