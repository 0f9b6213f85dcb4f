// Heterogeneous multiprogramming: a Mix assigns a different program to
// each group ("slot") of threads. Every slot gets its own 2 MiB window
// of the physical address space — text, data, and flag segments at the
// usual offsets from the slot base — so isolation between programs is
// structural (a slot simply has no names for another slot's addresses)
// and the core's invariant checker can assert it per access.
package loader

import (
	"fmt"

	"repro/internal/mem"
)

// SlotStride is the physical address-space window reserved per slot.
// It is a power of two (2 MiB) covering MemSize with room to spare, so
// virtual->physical translation is addr+base and the sync controller
// can recover the virtual offset with a single mask.
const SlotStride = 0x0020_0000

// Slot is one program in a Mix and the thread group running it.
type Slot struct {
	Object  *Object
	Threads int // threads running this program (contiguous, in slot order)
	// Regs is the per-thread logical register budget for this slot's
	// threads; 0 means an equal share of the physical register file
	// (the homogeneous partition rule applied to the total thread count).
	Regs int
}

// Mix is a heterogeneous multiprogrammed workload: one program per
// slot, threads assigned to slots contiguously (slot 0 gets threads
// [0, Slots[0].Threads), and so on).
type Mix struct {
	Slots []Slot
}

// NumThreads returns the total thread count across all slots.
func (x *Mix) NumThreads() int {
	n := 0
	for _, s := range x.Slots {
		n += s.Threads
	}
	return n
}

// SoloMix is the one-slot mix running obj on threads threads: the
// homogeneous machine, which both simulators build through the same
// layout path as any other mix.
func SoloMix(obj *Object, threads int) *Mix {
	return &Mix{Slots: []Slot{{Object: obj, Threads: threads}}}
}

// SlotBase returns the physical base address of slot s's window.
func SlotBase(s int) uint32 { return uint32(s) * SlotStride }

// Validate checks the mix's structure: at least one slot, every slot a
// valid object with at least one thread, and register budgets
// non-negative. Register-file capacity is the core's concern (it knows
// the physical register count); segment bounds are each Object's.
func (x *Mix) Validate() error {
	if len(x.Slots) == 0 {
		return fmt.Errorf("loader: mix has no slots")
	}
	for i, s := range x.Slots {
		if s.Object == nil {
			return fmt.Errorf("loader: mix slot %d has no program", i)
		}
		if err := s.Object.Validate(); err != nil {
			return fmt.Errorf("loader: mix slot %d: %w", i, err)
		}
		if s.Threads < 1 {
			return fmt.Errorf("loader: mix slot %d has %d threads", i, s.Threads)
		}
		if s.Regs < 0 {
			return fmt.Errorf("loader: mix slot %d has negative register budget %d", i, s.Regs)
		}
	}
	return nil
}

// Load builds the combined physical memory image: each slot's text and
// data at its window's TextBase/DataBase offsets, and its zeroed flag
// segment at FlagBase. Storing a segment's words materializes the pages
// under it, so a run's stores inside its text, data (which includes
// .space) and flag extents never allocate.
func (x *Mix) Load() (*mem.Memory, error) {
	if err := x.Validate(); err != nil {
		return nil, err
	}
	size := SlotBase(len(x.Slots)-1) + MemSize
	m := mem.New(size)
	for i, s := range x.Slots {
		base := SlotBase(i)
		for j, w := range s.Object.Text {
			m.StoreWord(base+TextBase+uint32(j)*4, w)
		}
		for j, w := range s.Object.Data {
			m.StoreWord(base+DataBase+uint32(j)*4, w)
		}
		for off := uint32(0); off < s.Object.FlagLen; off += 4 {
			m.StoreWord(base+FlagBase+off, 0)
		}
	}
	return m, nil
}
