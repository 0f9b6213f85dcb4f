// Package syncctl models the synchronization controller: a small
// uncached port onto the flag segment used by the FLDW, FSTW, and FAI
// primitives. Spin locks and barriers are built in software on top of
// it, which is what keeps a waiting thread committing instructions (and
// therefore never deadlocking the shared scheduling unit).
package syncctl

import (
	"fmt"

	"repro/internal/cover"
	"repro/internal/loader"
	"repro/internal/mem"
)

// Controller serializes all flag-segment accesses; because the simulator
// executes one operation at a time, FAI's read-modify-write is atomic by
// construction.
type Controller struct {
	m *mem.Memory

	// stride, when non-zero, is the power-of-two physical window size of
	// a program mix (loader.SlotStride): addresses are validated against
	// the flag segment of their own slot window by masking off the slot
	// base. Masking cannot tell which slot issued an address, so the
	// simulators check the virtual address first. Zero validates
	// addresses directly against the single flag segment.
	stride uint32

	// FaultDelay, when set, is consulted once per FLDW/FAI request with a
	// valid flag address; a non-zero return reports how many cycles the
	// grant is held before the primitive may execute (a delayed lock
	// grant, for robustness testing). Timing-only: the eventual access is
	// unchanged.
	FaultDelay func(now uint64, addr uint32, rmw bool) uint64

	// Observer, when set, receives a fact record for every flag read and
	// write (internal/cover), from which coverage derives flag handoffs.
	Observer cover.Sink

	reads, writes, rmws, delayed uint64
}

// New wraps main memory's flag segment.
func New(m *mem.Memory) *Controller { return &Controller{m: m} }

// SetStride arms per-slot flag-segment validation for a program mix;
// stride must be a power of two (loader.SlotStride).
func (c *Controller) SetStride(stride uint32) { c.stride = stride }

// SegFault is the typed trap for a sync primitive whose address falls
// outside the flag segment (or is unaligned). The simulators attach
// cycle, thread, and PC context before surfacing it.
type SegFault struct {
	Addr  uint32
	Write bool
}

func (f *SegFault) Error() string {
	op := "read"
	if f.Write {
		op = "write"
	}
	return fmt.Sprintf("syncctl: %s at %#08x is outside the flag segment", op, f.Addr)
}

func (c *Controller) check(addr uint32, write bool) error {
	va := addr
	if c.stride != 0 {
		va = addr & (c.stride - 1)
	}
	if !loader.IsFlagAddr(va) || (addr&3) != 0 {
		return &SegFault{Addr: addr, Write: write}
	}
	return nil
}

// note reports a flag fact of kind k about addr.
func (c *Controller) note(k cover.Kind, addr uint32) {
	if c.Observer != nil {
		c.Observer.Observe(cover.Record{Kind: k, A: uint64(addr)})
	}
}

// Read returns the flag word at addr.
func (c *Controller) Read(addr uint32) (uint32, error) {
	if err := c.check(addr, false); err != nil {
		return 0, err
	}
	c.reads++
	c.note(cover.KindFlagRead, addr)
	return c.m.Load(addr)
}

// Write stores v to the flag word at addr.
func (c *Controller) Write(addr, v uint32) error {
	if err := c.check(addr, true); err != nil {
		return err
	}
	c.writes++
	c.note(cover.KindFlagWrite, addr)
	return c.m.Store(addr, v)
}

// FetchAdd atomically returns the flag word at addr and increments it.
func (c *Controller) FetchAdd(addr uint32) (uint32, error) {
	if err := c.check(addr, true); err != nil {
		return 0, err
	}
	c.rmws++
	c.note(cover.KindFlagRead, addr)
	old, err := c.m.Load(addr)
	if err != nil {
		return 0, err
	}
	return old, c.m.Store(addr, old+1)
}

// GrantDelay reports how many cycles the controller holds the grant for
// a request at addr before it may execute — zero normally, non-zero only
// under an installed FaultDelay schedule. Invalid addresses never roll a
// delay (they fault at execute instead).
func (c *Controller) GrantDelay(now uint64, addr uint32, rmw bool) uint64 {
	if c.FaultDelay == nil || c.check(addr, rmw) != nil {
		return 0
	}
	d := c.FaultDelay(now, addr, rmw)
	if d > 0 {
		c.delayed++
	}
	return d
}

// Stats counts controller traffic.
type Stats struct {
	Reads, Writes, RMWs uint64
	DelayedGrants       uint64 // grants held by an injected fault schedule
}

// Stats returns a copy of the counters.
func (c *Controller) Stats() Stats {
	return Stats{Reads: c.reads, Writes: c.writes, RMWs: c.rmws, DelayedGrants: c.delayed}
}
