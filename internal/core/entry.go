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
// Entries live in a fixed per-machine arena (m.ents) at their
// scoreboard bit: slot s of block bi is m.ents[bi*BlockSize+s], and idx
// is that position. An entry therefore lives as long as its block:
// dispatch overwrites it when it takes the block position again.
// pool.go lists the two kinds of reference that outlive a block and
// how each is settled.
type suEntry struct {
	valid    bool // false: empty fetch slot or squashed hole
	squashed bool
	idx      int32 // arena index and scoreboard bit: block*BlockSize + slot
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

	// Memory reference bookkeeping.
	addr      uint32
	addrValid bool
	counted   bool // first cache attempt already counted for hit rate
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
// slots, or squashed instructions). bi is the block's fixed arena
// index; its entries are m.ents[bi*BlockSize:][:BlockSize], and slot s
// is scoreboard bit bi*BlockSize+s (see soa.go).
type block struct {
	thread  int
	bi      int32
	pending int8 // live entries not yet written back; 0 = committable
}

// done reports whether every live entry has its result. pending is
// maintained incrementally (dispatch, writeback, squash) and asserted
// against the slow scan by the invariant checker.
func (b *block) done() bool { return b.pending == 0 }

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
// paper's restricted load/store policy), so a committed store outlives
// its SU entry. It therefore copies at issue every fact its readers
// need: the drain, forwarding, the flag-store fence, the squash kill
// and fault reports. Store ops live in a fixed arena (m.sops) and are
// named by index in the buffer and drain queue.
type storeOp struct {
	idx       int32 // this op's own arena index
	committed bool
	counted   bool   // cache access counted on first drain attempt
	seq       uint64 // commit order, for the in-order-drain invariant
	tag       uint64
	thread    int
	pc        uint32
	inst      isa.Inst
	addr      uint32 // physical address
	data      uint32
}

func (so *storeOp) String() string {
	return fmt.Sprintf("t%d#%d %v@%#x", so.thread, so.tag, so.inst, so.pc)
}
