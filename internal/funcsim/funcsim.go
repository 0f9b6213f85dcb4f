// Package funcsim is the in-order functional reference simulator for
// SDSP-32. It interprets a program thread-by-thread with no pipeline,
// cache, or speculation, and serves as the correctness oracle for the
// cycle-level core: both must produce identical architectural memory and
// register state for every workload.
package funcsim

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/loader"
	"repro/internal/mem"
	"repro/internal/syncctl"
)

// Sim interprets an SDSP-32 program with N resident threads, stepping
// one instruction per live thread in round-robin order (the interleaving
// is immaterial for the data-race-free homogeneous-multitasking programs
// the paper runs, but round robin keeps spin loops live).
//
// Every simulator runs a program mix (NewMix): each thread runs the
// predecoded text of its slot, translates data/flag addresses by the
// slot's physical base, owns a contiguous window of the register file,
// and sees TID/NTH relative to its own slot's thread group. A
// homogeneous run (New) is the one-slot mix, whose layout is the
// identity (base 0).
type Sim struct {
	m        *mem.Memory
	sync     *syncctl.Controller
	nthreads int

	// Per-thread layout (identity for a one-slot mix).
	slotOf    []int    // which program slot the thread runs
	physBase  []uint32 // slot window base added to every virtual address
	regBase   []int    // first register-file index of the thread's window
	regBudget []int    // logical registers per thread
	vtid      []int    // virtual thread id within the slot (TID)
	vnth      []int    // slot thread-group size (NTH)

	regs   []uint32
	pc     []uint32 // virtual, like the cycle-level core
	halted []bool

	insts     [][]isa.Inst // predecoded text per slot
	instCount uint64
}

// MemFault is the typed trap an illegal data access raises: outside its
// segment, unaligned, or using the wrong primitive for the flag
// segment. It carries the faulting thread, PC, and address, mirroring
// the cycle-level core's structured MachineError.
type MemFault struct {
	Thread int
	PC     uint32
	Addr   uint32
	Write  bool
	Reason string
}

func (f *MemFault) Error() string {
	dir := "load"
	if f.Write {
		dir = "store"
	}
	return fmt.Sprintf("funcsim: thread %d at pc %#x: illegal %s at %#08x: %s",
		f.Thread, f.PC, dir, f.Addr, f.Reason)
}

// New loads obj and prepares nthreads threads, all starting at the entry
// point with the register file statically partitioned: the one-slot mix
// of obj.
func New(obj *loader.Object, nthreads int) (*Sim, error) {
	return NewMix(loader.SoloMix(obj, nthreads), nthreads)
}

// NewMix loads a program mix: each slot's object sits in its own 2 MiB
// window and its thread group gets an independent register budget (a
// slot's Regs, or an equal RegsPerThread share when zero). Threads are
// numbered contiguously across slots in slot order, matching the
// cycle-level core. Every text word is predecoded and checked against
// its slot's budget up front, so no register access can fault mid-run
// for a loadable object.
func NewMix(mix *loader.Mix, threads int) (*Sim, error) {
	if threads < 1 || threads > isa.NumPhysRegs/2 {
		return nil, fmt.Errorf("funcsim: invalid thread count %d", threads)
	}
	if err := mix.Validate(); err != nil {
		return nil, fmt.Errorf("funcsim: %w", err)
	}
	if n := mix.NumThreads(); n != threads {
		return nil, fmt.Errorf("funcsim: mix has %d threads but %d were requested", n, threads)
	}
	m, err := mix.Load()
	if err != nil {
		return nil, err
	}
	s := &Sim{
		m:         m,
		sync:      syncctl.New(m),
		nthreads:  threads,
		slotOf:    make([]int, threads),
		physBase:  make([]uint32, threads),
		regBase:   make([]int, threads),
		regBudget: make([]int, threads),
		vtid:      make([]int, threads),
		vnth:      make([]int, threads),
		pc:        make([]uint32, threads),
		halted:    make([]bool, threads),
		insts:     make([][]isa.Inst, len(mix.Slots)),
	}
	s.sync.SetStride(loader.SlotStride)
	t, base := 0, 0
	for si, slot := range mix.Slots {
		budget := slot.Regs
		if budget == 0 {
			budget = isa.RegsPerThread(threads)
		}
		insts := make([]isa.Inst, len(slot.Object.Text))
		for i, w := range slot.Object.Text {
			in, err := isa.Decode(w)
			if err != nil {
				return nil, fmt.Errorf("funcsim: slot %d text word %d: %w", si, i, err)
			}
			if r := in.MaxReg(); int(r) >= budget {
				return nil, fmt.Errorf("funcsim: slot %d text word %d (%v) uses r%d, but its partition on the %d-thread machine is %d registers per thread",
					si, i, in, r, threads, budget)
			}
			insts[i] = in
		}
		s.insts[si] = insts
		for k := 0; k < slot.Threads; k++ {
			s.slotOf[t] = si
			s.physBase[t] = loader.SlotBase(si)
			s.regBase[t] = base
			s.regBudget[t] = budget
			s.vtid[t] = k
			s.vnth[t] = slot.Threads
			s.pc[t] = slot.Object.Entry
			base += budget
			t++
		}
	}
	if base > isa.NumPhysRegs {
		return nil, fmt.Errorf("funcsim: mix register partitions need %d physical registers, only %d exist",
			base, isa.NumPhysRegs)
	}
	s.regs = make([]uint32, base)
	return s, nil
}

// NumThreads returns the configured thread count.
func (s *Sim) NumThreads() int { return s.nthreads }

// RegsPerThread returns thread 0's logical register budget (the uniform
// per-thread budget in homogeneous mode).
func (s *Sim) RegsPerThread() int { return s.regBudget[0] }

// RegBudget returns thread t's logical register budget.
func (s *Sim) RegBudget(t int) int { return s.regBudget[t] }

// Reg reads thread t's logical register r.
func (s *Sim) Reg(t, r int) uint32 {
	if r <= 0 || r >= s.regBudget[t] {
		return 0
	}
	return s.regs[s.regBase[t]+r]
}

func (s *Sim) setReg(t int, r uint8, v uint32) {
	if r == 0 {
		return
	}
	if int(r) >= s.regBudget[t] {
		panic(fmt.Sprintf("funcsim: thread %d uses r%d but budget is %d registers", t, r, s.regBudget[t]))
	}
	s.regs[s.regBase[t]+int(r)] = v
}

func (s *Sim) reg(t int, r uint8) uint32 {
	if r == 0 {
		return 0
	}
	if int(r) >= s.regBudget[t] {
		panic(fmt.Sprintf("funcsim: thread %d uses r%d but budget is %d registers", t, r, s.regBudget[t]))
	}
	return s.regs[s.regBase[t]+int(r)]
}

// Memory exposes the architectural memory (for result checks).
func (s *Sim) Memory() *mem.Memory { return s.m }

// InstCount returns the number of instructions executed so far.
func (s *Sim) InstCount() uint64 { return s.instCount }

// Halted reports whether every thread has executed HALT.
func (s *Sim) Halted() bool {
	for _, h := range s.halted {
		if !h {
			return false
		}
	}
	return true
}

// Run interprets until every thread halts, erroring out after maxSteps
// instructions (a guard against runaway programs).
func (s *Sim) Run(maxSteps uint64) error {
	for !s.Halted() {
		progress := false
		for t := 0; t < s.nthreads; t++ {
			if s.halted[t] {
				continue
			}
			if err := s.step(t); err != nil {
				return err
			}
			progress = true
			if s.instCount > maxSteps {
				return fmt.Errorf("funcsim: exceeded %d instructions (livelock?)", maxSteps)
			}
		}
		if !progress {
			break
		}
	}
	return nil
}

// checkData validates an LW/SW address the same way the cycle-level
// core does at issue: word-aligned and inside the data segment (flag
// words require the sync primitives; text is not readable).
func (s *Sim) checkData(t int, pc, addr uint32, write bool) error {
	switch {
	case loader.IsFlagAddr(addr):
		return &MemFault{Thread: t, PC: pc, Addr: addr, Write: write, Reason: "flag segment requires fldw/fstw/fai"}
	case !loader.IsDataAddr(addr):
		return &MemFault{Thread: t, PC: pc, Addr: addr, Write: write, Reason: "outside the data segment"}
	case (addr & 3) != 0:
		return &MemFault{Thread: t, PC: pc, Addr: addr, Write: write, Reason: "unaligned word access"}
	}
	return nil
}

// flagAddr validates a sync primitive's virtual flag address — inside
// the flag segment and word-aligned, the rule the cycle-level core
// applies at issue — and returns it slot-translated. Checking before
// translating is what isolates a mix's slots: the sync controller only
// sees physical addresses, and masking off the slot base there would
// accept a virtual address in another slot's window.
func (s *Sim) flagAddr(t int, pc uint32, in isa.Inst, write bool) (uint32, error) {
	addr := isa.EffAddr(s.reg(t, in.Rs1), in.Imm)
	if !loader.IsFlagAddr(addr) || (addr&3) != 0 {
		return 0, &MemFault{Thread: t, PC: pc, Addr: addr, Write: write,
			Reason: in.Op.String() + " outside the flag segment (or unaligned)"}
	}
	return s.physBase[t] + addr, nil
}

// step executes one instruction on thread t.
func (s *Sim) step(t int) error {
	insts := s.insts[s.slotOf[t]]
	pc := s.pc[t]
	idx := pc / 4
	if idx >= uint32(len(insts)) {
		return fmt.Errorf("funcsim: thread %d fetched outside text at %#08x", t, pc)
	}
	in := insts[idx]
	s.instCount++
	next := pc + 4

	switch {
	case in.Op == isa.HALT:
		s.halted[t] = true
	case in.Op == isa.NOP:
	case in.Op == isa.TID:
		s.setReg(t, in.Rd, uint32(s.vtid[t]))
	case in.Op == isa.NTH:
		s.setReg(t, in.Rd, uint32(s.vnth[t]))
	case in.Op == isa.LW:
		// Validate the virtual address, access the slot-translated
		// physical one — exactly the cycle-level core's split.
		addr := isa.EffAddr(s.reg(t, in.Rs1), in.Imm)
		if err := s.checkData(t, pc, addr, false); err != nil {
			return err
		}
		s.setReg(t, in.Rd, s.m.LoadWord(s.physBase[t]+addr))
	case in.Op == isa.SW:
		addr := isa.EffAddr(s.reg(t, in.Rs1), in.Imm)
		if err := s.checkData(t, pc, addr, true); err != nil {
			return err
		}
		s.m.StoreWord(s.physBase[t]+addr, s.reg(t, in.Rs2))
	case in.Op == isa.FLDW:
		pa, err := s.flagAddr(t, pc, in, false)
		if err != nil {
			return err
		}
		v, err := s.sync.Read(pa)
		if err != nil {
			return err
		}
		s.setReg(t, in.Rd, v)
	case in.Op == isa.FSTW:
		pa, err := s.flagAddr(t, pc, in, true)
		if err != nil {
			return err
		}
		if err := s.sync.Write(pa, s.reg(t, in.Rs2)); err != nil {
			return err
		}
	case in.Op == isa.FAI:
		pa, err := s.flagAddr(t, pc, in, true)
		if err != nil {
			return err
		}
		v, err := s.sync.FetchAdd(pa)
		if err != nil {
			return err
		}
		s.setReg(t, in.Rd, v)
	case in.Op.IsBranch():
		if isa.BranchTaken(in.Op, s.reg(t, in.Rs1), s.reg(t, in.Rs2)) {
			next = isa.CTTarget(in, pc, 0)
		}
	case in.Op == isa.JAL:
		s.setReg(t, in.Rd, pc+4)
		next = isa.CTTarget(in, pc, 0)
	case in.Op == isa.JALR:
		s.setReg(t, in.Rd, pc+4)
		next = isa.CTTarget(in, pc, s.reg(t, in.Rs1))
	default: // computational
		var b uint32
		if isa.HasImmOperand(in.Op) {
			b = isa.EvalImmOperand(in.Op, in.Imm)
		} else {
			b = s.reg(t, in.Rs2)
		}
		s.setReg(t, in.Rd, isa.EvalOp(in.Op, s.reg(t, in.Rs1), b))
	}
	s.pc[t] = next
	return nil
}

// RunProgram is a convenience: assembler output in, final memory out.
func RunProgram(obj *loader.Object, nthreads int, maxSteps uint64) (*Sim, error) {
	return RunMix(loader.SoloMix(obj, nthreads), maxSteps)
}

// RunMix runs a mix to completion: the fully halted simulator (with its
// stacked slot memory) out.
func RunMix(mix *loader.Mix, maxSteps uint64) (*Sim, error) {
	s, err := NewMix(mix, mix.NumThreads())
	if err != nil {
		return nil, err
	}
	if err := s.Run(maxSteps); err != nil {
		return nil, err
	}
	return s, nil
}
