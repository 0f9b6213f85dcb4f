package cover

import (
	"fmt"
	"io"

	"repro/internal/isa"
)

// Kind names what a record reports. Kind(e) reports coverage event e;
// the kinds after the coverage events follow, with their payloads.
type Kind uint8

const (
	// Pipeline stages.
	KindFetch      Kind = Kind(NumEvents) + iota // a block entered the latch: PC = its address, A = the next PC
	KindDispatch                                 // an instruction entered the SU
	KindIssue                                    // A = the FU class, B = the unit
	KindRefusal                                  // a ready instruction did not issue: A = the refusal's Event
	KindWriteback                                // A = the result
	KindMispredict                               // a mispredict squashed younger work: A = the actual target, B = 1 when taken
	KindCommit                                   // a block committed: A = its window slot

	// Injected faults (internal/fault).
	KindFetchMisdecide // fetch went to thread A instead of Thread
	KindSpuriousSquash // a correct prediction squashed anyway: A and B as for KindMispredict
	KindSyncHold       // a sync grant was held for A cycles
	KindSpuriousWakeup // an FLDW discarded its value to retry

	// Facts the Recorder derives coverage events from.
	KindFLDW      // an FLDW read flag A and saw value B
	KindFAI       // an FAI incremented flag A
	KindBTBLookup // Thread consulted the shared BTB entry for PC
	KindBTBTrain  // Thread's commit trained the shared BTB entry for PC
	KindFlagRead  // the sync controller read flag A (Cycle 0: it keeps no clock)
	KindFlagWrite // the sync controller wrote flag A (Cycle 0)
)

// Record is one observed event. Records about an instruction carry its
// Thread, PC, Tag and Inst; coverage events carry only Kind and Cycle.
// A record is passed by value, so none escapes to the heap.
type Record struct {
	Kind   Kind
	Cycle  uint64
	Thread int
	PC     uint32
	Tag    uint64
	Inst   isa.Inst
	A, B   uint64
}

// Sink consumes records, synchronously from the machine's cycle loop.
type Sink interface {
	Observe(r Record)
}

// Hit hands s, if any, the record of coverage event ev at cycle.
func Hit(s Sink, ev Event, cycle uint64) {
	if s != nil {
		s.Observe(Record{Kind: Kind(ev), Cycle: cycle})
	}
}

// Chain returns a sink handing each record to first, if any, then second.
func Chain(first, second Sink) Sink {
	if first == nil {
		return second
	}
	return chain{first, second}
}

type chain [2]Sink

func (c chain) Observe(r Record) {
	c[0].Observe(r)
	c[1].Observe(r)
}

// Recorder is a Set's consumer for one run. It counts each coverage
// record, maps the stage records that are coverage events onto them,
// and derives cross-thread issue cycles, FLDW sleep/wake, FAI
// contention, BTB cross-thread hits and flag handoffs from the stream.
// Its derived state lives as long as the run; only the Set's counts
// outlive it.
type Recorder struct {
	set       *Set
	fldw      map[int][2]uint32 // per thread: flag and value of its last FLDW
	faiAddr   uint32            // flag of the last FAI machine-wide
	faiThread int               // thread of the last FAI, or -1
	trainer   map[uint32]int    // shared BTB: last training thread per branch PC
	readSince map[uint32]bool   // flags read since their last write
	issueAt   uint64            // cycle of the last issue record
	issuer    int               // thread of that cycle's first issue, or -1 once another issued
}

// NewRecorder returns a run's consumer counting into s.
func NewRecorder(s *Set) *Recorder {
	return &Recorder{set: s, fldw: map[int][2]uint32{}, faiThread: -1,
		trainer: map[uint32]int{}, readSince: map[uint32]bool{}}
}

// Observe counts r.
func (c *Recorder) Observe(r Record) {
	s, addr := c.set, uint32(r.A)
	switch r.Kind {
	case KindIssue:
		// A cycle that issues from two or more threads is one hit.
		if r.Cycle != c.issueAt {
			c.issueAt, c.issuer = r.Cycle, r.Thread
		} else if c.issuer >= 0 && r.Thread != c.issuer {
			s.Hit(EvIssueCrossThread)
			c.issuer = -1
		}
	case KindRefusal:
		s.Hit(Event(r.A))
	case KindMispredict:
		s.Hit(EvMispredictSquash)
	case KindCommit:
		if r.A == 0 {
			s.Hit(EvCommitBottom)
		} else {
			s.Hit(EvCommitAhead)
		}
		if r.A >= 2 {
			s.Hit(EvCommitAheadDeep)
		}
	case KindFLDW:
		// The same value on a re-read of the flag is a spin iteration
		// (sleep), a changed one a wakeup.
		if last, ok := c.fldw[r.Thread]; ok && last[0] == addr {
			if last[1] == uint32(r.B) {
				s.Hit(EvFLDWSleep)
			} else {
				s.Hit(EvFLDWWake)
			}
		}
		c.fldw[r.Thread] = [2]uint32{addr, uint32(r.B)}
	case KindFAI:
		if c.faiThread >= 0 && c.faiAddr == addr && c.faiThread != r.Thread {
			s.Hit(EvFAIContention)
		}
		c.faiAddr, c.faiThread = addr, r.Thread
	case KindBTBLookup:
		if t, ok := c.trainer[r.PC]; ok && t != r.Thread {
			s.Hit(EvBTBCrossThreadHit)
		}
	case KindBTBTrain:
		c.trainer[r.PC] = r.Thread
	case KindFlagRead:
		c.readSince[addr] = true
	case KindFlagWrite:
		if c.readSince[addr] {
			s.Hit(EvFlagHandoff)
			c.readSince[addr] = false
		}
	default:
		if r.Kind < Kind(NumEvents) {
			s.Hit(Event(r.Kind))
		}
	}
}

// Trace renders the pipeline-stage and injected-fault records of cycles
// 1 through its last cycle as text, one line each, prefixed with the
// cycle. Later records are dropped before any formatting.
type Trace struct {
	w    io.Writer
	last uint64
}

// NewTrace returns a Trace writing the first last cycles to w.
func NewTrace(w io.Writer, last uint64) *Trace { return &Trace{w: w, last: last} }

// Observe renders r.
func (t *Trace) Observe(r Record) {
	if r.Cycle > t.last {
		return
	}
	const in = "t%d#%d %v@%#x" // an instruction: thread, tag, disassembly, PC
	c, w := r.Cycle, t.w
	switch r.Kind {
	case KindFetch:
		fmt.Fprintf(w, "%8d  fetch   t%d block @%#x (next pc %#x)\n", c, r.Thread, r.PC, r.A)
	case KindDispatch:
		fmt.Fprintf(w, "%8d  dispatch "+in+"\n", c, r.Thread, r.Tag, r.Inst, r.PC)
	case KindIssue:
		fmt.Fprintf(w, "%8d  issue    "+in+" -> %v unit %d\n", c, r.Thread, r.Tag, r.Inst, r.PC, isa.Class(r.A), r.B)
	case KindRefusal:
		fmt.Fprintf(w, "%8d  refused  "+in+": %v\n", c, r.Thread, r.Tag, r.Inst, r.PC, Event(r.A))
	case KindWriteback:
		fmt.Fprintf(w, "%8d  wb       "+in+" = %#x\n", c, r.Thread, r.Tag, r.Inst, r.PC, r.A)
	case KindMispredict:
		fmt.Fprintf(w, "%8d  mispredict "+in+" (actual taken=%v target=%#x)\n", c, r.Thread, r.Tag, r.Inst, r.PC, r.B != 0, r.A)
	case KindCommit:
		fmt.Fprintf(w, "%8d  commit   t%d block from window slot %d\n", c, r.Thread, r.A)
	case KindFetchMisdecide:
		fmt.Fprintf(w, "%8d  fetch misdecide t%d -> t%d (injected)\n", c, r.Thread, r.A)
	case KindSpuriousSquash:
		fmt.Fprintf(w, "%8d  spurious squash "+in+" (injected)\n", c, r.Thread, r.Tag, r.Inst, r.PC)
	case KindSyncHold:
		fmt.Fprintf(w, "%8d  sync hold "+in+" for %d cycles (injected)\n", c, r.Thread, r.Tag, r.Inst, r.PC, r.A)
	case KindSpuriousWakeup:
		fmt.Fprintf(w, "%8d  spurious wakeup "+in+" (injected)\n", c, r.Thread, r.Tag, r.Inst, r.PC)
	}
}
