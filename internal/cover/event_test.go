package cover

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

// The Recorder counts coverage records, maps stage records onto their
// events and derives the history events from the stream.
func TestRecorderDerivesEvents(t *testing.T) {
	s := NewSet()
	r := NewRecorder(s)
	for _, rec := range []Record{
		{Kind: Kind(EvFetchIdle), Cycle: 1},
		{Kind: KindRefusal, Cycle: 1, A: uint64(EvStoreBufferFull)},
		{Kind: KindMispredict, Cycle: 1},
		{Kind: KindSpuriousSquash, Cycle: 1}, // not a mispredict
		{Kind: KindDispatch, Cycle: 1},       // no coverage event
		{Kind: KindCommit, Cycle: 1, A: 0},
		{Kind: KindCommit, Cycle: 2, A: 1},
		{Kind: KindCommit, Cycle: 3, A: 2},
		{Kind: KindIssue, Cycle: 4, Thread: 0},
		{Kind: KindIssue, Cycle: 4, Thread: 1},
		{Kind: KindIssue, Cycle: 4, Thread: 2}, // the same cycle hits once
		{Kind: KindIssue, Cycle: 5, Thread: 1},
		{Kind: KindIssue, Cycle: 5, Thread: 1},
		{Kind: KindFLDW, Thread: 0, A: 0x100, B: 0},
		{Kind: KindFLDW, Thread: 0, A: 0x100, B: 0}, // sleep
		{Kind: KindFLDW, Thread: 1, A: 0x100, B: 1}, // thread 1's first read
		{Kind: KindFLDW, Thread: 0, A: 0x100, B: 1}, // wake
		{Kind: KindFLDW, Thread: 0, A: 0x104, B: 1}, // another flag
		{Kind: KindFAI, Thread: 0, A: 0x200},
		{Kind: KindFAI, Thread: 0, A: 0x200},
		{Kind: KindFAI, Thread: 1, A: 0x200},       // contention
		{Kind: KindBTBLookup, Thread: 1, PC: 0x40}, // never trained
		{Kind: KindBTBTrain, Thread: 0, PC: 0x40},
		{Kind: KindBTBLookup, Thread: 0, PC: 0x40},
		{Kind: KindBTBLookup, Thread: 1, PC: 0x40}, // cross-thread hit
		{Kind: KindFlagWrite, A: 0x300},            // not read since
		{Kind: KindFlagRead, A: 0x300},
		{Kind: KindFlagWrite, A: 0x300}, // handoff
		{Kind: KindFlagWrite, A: 0x300},
	} {
		r.Observe(rec)
	}
	want := map[Event]uint64{
		EvFetchIdle: 1, EvStoreBufferFull: 1, EvMispredictSquash: 1,
		EvCommitBottom: 1, EvCommitAhead: 2, EvCommitAheadDeep: 1,
		EvIssueCrossThread: 1, EvFLDWSleep: 1, EvFLDWWake: 1,
		EvFAIContention: 1, EvBTBCrossThreadHit: 1, EvFlagHandoff: 1,
	}
	for _, e := range Events() {
		if s.Count(e) != want[e] {
			t.Errorf("%v: count %d, want %d", e, s.Count(e), want[e])
		}
	}
}

// The trace renders stage records up to its last cycle, and Chain hands
// every record to both sinks in order.
func TestTraceAndChain(t *testing.T) {
	var b strings.Builder
	s := NewSet()
	sink := Chain(NewRecorder(s), NewTrace(&b, 2))
	in := isa.Inst{Op: isa.NOP}
	for _, r := range []Record{
		{Kind: KindDispatch, Cycle: 1, Thread: 1, Tag: 7, Inst: in, PC: 0x10},
		{Kind: Kind(EvFetchIdle), Cycle: 2},  // coverage only
		{Kind: KindFLDW, Cycle: 2, A: 0x100}, // a fact
		{Kind: KindCommit, Cycle: 2, Thread: 1, A: 0},
		{Kind: KindCommit, Cycle: 3, Thread: 1, A: 0}, // past the last cycle
	} {
		sink.Observe(r)
	}
	want := "       1  dispatch t1#7 nop@0x10\n" +
		"       2  commit   t1 block from window slot 0\n"
	if b.String() != want {
		t.Errorf("trace:\n%s\nwant:\n%s", b.String(), want)
	}
	if s.Count(EvCommitBottom) != 2 || s.Count(EvFetchIdle) != 1 {
		t.Errorf("the Recorder behind the chain counted commit-bottom %d, fetch-idle %d; want 2 and 1",
			s.Count(EvCommitBottom), s.Count(EvFetchIdle))
	}
	if Chain(nil, sink) != sink {
		t.Error("Chain(nil, s) is not s")
	}
}
