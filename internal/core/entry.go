package core

import (
	"fmt"

	"repro/internal/isa"
)

// entryState tracks an instruction's life inside the scheduling unit.
type entryState uint8

const (
	stWaiting entryState = iota // in the window, operands may be pending
	stIssued                    // executing on a functional unit
	stDone                      // result written back, awaiting commit
)

// operand is a renamed source: either a captured value or a tag naming
// the in-flight producer.
type operand struct {
	ready   bool
	value   uint32
	tag     uint64 // producer's tag when !ready
	readyAt uint64 // earliest cycle the value may feed issue (bypassing)
}

// suEntry is one instruction's scheduling unit slot. All cross-stage
// state lives here; stages communicate only through these entries.
//
// Entries live in a per-machine arena (m.ents, see pool.go) and are
// named by their int32 arena index everywhere a reference is stored;
// *suEntry pointers are taken transiently within a stage and are never
// held across newEntry (the arena may grow). refs counts the containers
// that may still reach the entry — its block while that block sits in
// the SU, the completion queue, the pending-load list, and a store
// buffer slot — and the entry's index returns to the free list when the
// last reference is dropped. blkID is the owning block's unique id;
// same-block checks against entries whose block has already committed
// (and possibly been recycled) must compare blkID, never blk.
type suEntry struct {
	valid    bool // false: empty fetch slot or squashed hole
	squashed bool
	blk      *block // owning block (stable: blocks live in a fixed arena)
	blkID    uint64 // owning block's unique id (stable across pooling)
	idx      int32  // this entry's own arena index
	slot     int8   // slot within the owning block (bitset position)
	refs     int8   // live container references; 0 returns the entry to the pool
	tag      uint64
	thread   int
	pc       uint32
	inst     isa.Inst
	state    entryState

	// Facts fixed at dispatch, so no later stage consults the opcode
	// table or the register partition again (the invariant checker
	// re-derives them each cycle).
	class isa.Class // functional unit pool
	ct    bool      // control transfer (branch, jump, halt)
	dst   int16     // physical destination register, -1 when none

	src  [2]operand
	nsrc int

	result     uint32
	completeAt uint64
	wbCycle    uint64 // cycle the result was written back
	fuUnit     int    // unit index within its class pool, for usage stats
	badAddr    bool   // speculative wrong-path address; fatal if committed
	wbDelayed  bool   // fault injection already consulted for this writeback
	squashedBy uint64 // tag of the CT that squashed this entry (diagnostics)

	// Sync fault injection (FLDW/FAI only).
	syncRolled    bool   // grant-delay schedule already consulted
	syncWoken     bool   // spurious-wakeup schedule already consulted
	syncHoldUntil uint64 // issue held until this cycle by an injected fault

	// Control transfer bookkeeping.
	predTaken    bool
	predTarget   uint32
	actualTaken  bool
	actualTarget uint32
	resolved     bool // CT outcome known

	// Memory reference bookkeeping.
	addr      uint32
	addrValid bool
	counted   bool // first cache attempt already counted for hit rate
	storeData uint32
}

func (e *suEntry) String() string {
	return fmt.Sprintf("t%d#%d %v@%#x %v", e.thread, e.tag, e.inst, e.pc, e.state)
}

// ready reports whether the entry may issue at cycle now given the
// bypassing rule.
func (e *suEntry) ready(now uint64) bool {
	if e.state != stWaiting {
		return false
	}
	for i := 0; i < e.nsrc; i++ {
		if !e.src[i].ready || e.src[i].readyAt > now {
			return false
		}
	}
	return true
}

// block is a fetch-aligned group of BlockSize entries, all from one
// thread. Invalid slots are holes (pre-PC slots, post-taken-branch
// slots, or squashed instructions). id is unique for the machine's
// lifetime even though the block struct itself is pooled; bi is the
// block's fixed arena index, which doubles as its bitset group (slot s
// of block bi is scoreboard bit bi*BlockSize+s, see soa.go).
type block struct {
	thread  int
	id      uint64
	bi      int32
	pending int8 // live entries not yet written back; 0 = committable
	entries [BlockSize]int32
}

// done reports whether every live entry has its result. pending is
// maintained incrementally (dispatch, writeback, squash) and asserted
// against the slow scan by the invariant checker.
func (b *block) done() bool { return b.pending == 0 }

// noEntries initialises a block's slots to the empty index.
var noEntries = [BlockSize]int32{-1, -1, -1, -1}

// decoded is one text word as the pipeline reads it: the instruction
// plus the facts dispatch would otherwise derive from its opcode on
// every fetch. New fills one per text word, next to isa.Decode.
type decoded struct {
	inst    isa.Inst
	class   isa.Class // functional unit pool
	ct      bool      // control transfer (branch, jump, halt)
	trigger bool      // CondSwitch thread-switch trigger
	rd      uint8     // logical destination register, 0 when none is written
	nsrc    uint8     // register sources read: srcs[:nsrc]
	srcs    [2]uint8  // logical source registers
	hasImm  bool      // the second operand is the immediate, immOp
	immOp   uint32
}

// decode derives in's pipeline facts.
func decode(in isa.Inst) decoded {
	d := decoded{
		inst:    in,
		class:   in.Op.FUClass(),
		ct:      in.Op.IsCT(),
		trigger: in.Op.SwitchTrigger(),
		hasImm:  isa.HasImmOperand(in.Op),
	}
	if in.Op.WritesRd() {
		d.rd = in.Rd
	}
	r1, r2, n := in.SrcRegs()
	d.srcs, d.nsrc = [2]uint8{r1, r2}, uint8(n)
	if d.hasImm {
		d.immOp = isa.EvalImmOperand(in.Op, in.Imm)
	}
	return d
}

// fetchBlock is the decode latch: one fetched block awaiting dispatch.
type fetchBlock struct {
	thread int
	pcs    [BlockSize]uint32
	insts  [BlockSize]decoded
	valid  [BlockSize]bool
	pred   [BlockSize]predInfo
}

type predInfo struct {
	taken  bool
	target uint32
}

// storeOp is a store buffer entry. A store occupies the buffer from
// issue until it drains to the cache after its block commits (the
// paper's restricted load/store policy). Store ops live in an arena
// (m.sops) and are named by index in the buffer and drain queue.
type storeOp struct {
	entry     int32 // arena index of the owning suEntry
	idx       int32 // this op's own arena index
	committed bool
	drained   bool
	counted   bool   // cache access counted on first drain attempt
	seq       uint64 // commit order, for the in-order-drain invariant
}
