package core

// Arena allocation for the per-cycle hot path. The steady-state cycle
// loop allocates nothing: scheduling-unit entries, blocks, and store
// buffer slots all live in per-machine arenas and are recycled through
// index free lists (TestCycleAllocFree asserts zero allocs/cycle for a
// warm machine, and docs/PERFORMANCE.md records the budgets and the
// layout).
//
// Lifetimes are tracked with a per-entry reference count rather than
// ownership by a single stage, because an suEntry can outlive its
// block (a committed store's entry stays reachable through its store
// buffer slot until the drain; a squashed entry stays reachable
// through the completion queue or pending-load list until lazily
// dropped). The holders are exactly:
//
//   - the owning block, while that block sits in the SU
//     (dropped for every slot when commit pops the block);
//   - m.completions (dropped when writeback consumes or discards it);
//   - m.pendingLoads (dropped when serviceLoads retires or discards it);
//   - a storeOp, from issue until the slot itself is freed.
//
// Arena memory is recycled only through these counts, so no stage can
// observe a stale entry; block identity across recycling is compared
// via blkID (see entry.go). The entry and store-op arenas may grow
// (append), so *suEntry/*storeOp pointers are taken transiently and
// never stored or held across an allocation; the block arena is fixed
// at build time (live blocks never exceed the SU capacity), so *block
// pointers are stable for the machine's lifetime.

// newEntry returns the index of a zeroed entry holding one reference
// (the block's). Only dispatch allocates entries.
func (m *Machine) newEntry() int32 {
	n := len(m.entryFree)
	if n == 0 {
		m.ents = append(m.ents, suEntry{})
		i := int32(len(m.ents) - 1)
		e := &m.ents[i]
		e.idx, e.refs = i, 1
		return i
	}
	i := m.entryFree[n-1]
	m.entryFree = m.entryFree[:n-1]
	e := &m.ents[i]
	*e = suEntry{idx: i, refs: 1}
	return i
}

// retain adds a container reference to e.
func (m *Machine) retain(e *suEntry) { e.refs++ }

// release drops one container reference; the last one returns the
// entry's index to the free list. A faulted machine stops recycling so
// the MachineError snapshot (and any debugger poking at the wreck)
// sees frozen state.
func (m *Machine) release(e *suEntry) {
	e.refs--
	if e.refs == 0 && m.fault == nil {
		e.blk = nil
		m.entryFree = append(m.entryFree, e.idx)
	}
}

// newBlock returns a zeroed block with a fresh unique id. The free
// list can never be empty here: blocks live only in the SU, dispatch
// runs only when the SU has a free slot, and every stage that could
// leak a block is fault-gated (commit frees its block before any later
// stage can fault the machine).
func (m *Machine) newBlock(thread int) *block {
	m.nextBlockID++
	n := len(m.blockFree)
	bi := m.blockFree[n-1]
	m.blockFree = m.blockFree[:n-1]
	b := &m.blocks[bi]
	*b = block{thread: thread, id: m.nextBlockID, bi: bi, entries: noEntries}
	return b
}

// freeBlock recycles a block popped from the SU. Its entries must have
// had their block references dropped already.
func (m *Machine) freeBlock(b *block) {
	if m.fault == nil {
		m.blockFree = append(m.blockFree, b.bi)
	}
}

// newStoreOp returns the index of a zeroed store buffer slot for e,
// taking a reference on the entry for the slot's lifetime.
func (m *Machine) newStoreOp(e *suEntry) int32 {
	m.retain(e)
	n := len(m.storeOpFree)
	if n == 0 {
		m.sops = append(m.sops, storeOp{})
		i := int32(len(m.sops) - 1)
		so := &m.sops[i]
		so.idx, so.entry = i, e.idx
		return i
	}
	i := m.storeOpFree[n-1]
	m.storeOpFree = m.storeOpFree[:n-1]
	so := &m.sops[i]
	*so = storeOp{idx: i, entry: e.idx}
	return i
}

// freeStoreOp recycles a slot (drained, or squash-killed before
// commit) and drops its entry reference.
func (m *Machine) freeStoreOp(so *storeOp) {
	e := &m.ents[so.entry]
	if m.fault == nil {
		m.storeOpFree = append(m.storeOpFree, so.idx)
	}
	m.release(e)
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
// reflection header escapes) and the slices here are tiny (bounded by
// the writeback width or the store buffer depth).
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

// sortIdxByTagDesc orders entry indices by descending renaming tag
// (youngest first), as store-forwarding candidate scans need.
func (m *Machine) sortIdxByTagDesc(es []int32) {
	for i := 1; i < len(es); i++ {
		ei := es[i]
		t := m.ents[ei].tag
		j := i - 1
		for j >= 0 && m.ents[es[j]].tag < t {
			es[j+1] = es[j]
			j--
		}
		es[j+1] = ei
	}
}
