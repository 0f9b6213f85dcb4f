// Package cover defines the machine's event stream and its coverage
// model. The core, its data cache and its sync controller report what
// happens to one Sink as typed Records: coverage events, pipeline
// stages, injected faults, and the facts some coverage events are
// derived from. Recorder counts coverage into a Set; Trace renders the
// pipeline stages as text.
//
// The coverage events are a fixed vocabulary of named machine states
// the paper's performance claims depend on (Flexible Result Commit
// firing ahead of a stalled older block, selective squash sparing other
// threads, store-buffer saturation, cache refill-overlap hits, BTB
// cross-thread aliasing, FLDW sleep/wake transitions, ...).
//
// The Set answers the question every differential corpus eventually
// faces: are the rare pipeline interactions we claim to test ever
// actually reached? A run with Config.Coverage set records one counter
// per event; Sets merge across runs, so a corpus's aggregate coverage
// — and its gap list — is a checkable number rather than a hope.
//
// Events are gated by applicability: a configuration (or program) that
// cannot reach an event marks it inapplicable, so coverage percentages
// never charge a TrueRR run for never taking a CondSwitch rotation, or
// a sync-free program for never spinning on a flag.
package cover

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// Event names one microarchitectural state. The zero value is the
// first real event; NumEvents bounds dense arrays.
type Event uint8

// The event vocabulary, grouped by the pipeline stage that detects it.
const (
	// Front end (fetch/dispatch).
	EvFetchIdle         Event = iota // no thread could fetch this cycle
	EvFetchWrongPath                 // a fetched block held no valid instruction (wrong-path beyond text)
	EvFetchTakenTrunc                // a predicted-taken CT truncated the fetch block
	EvFetchHaltStop                  // predecode stopped a thread's fetch at HALT
	EvFetchPartialBlock              // fetch entered an aligned block mid-way (pre-PC slots wasted)
	EvFetchMaskedSkip                // MaskedRR skipped the thread stalling the bottom block
	EvFetchCondRotate                // CondSwitch rotated threads on a decode trigger
	EvFetchICountSteer               // ICount steered fetch away from a fuller thread
	EvFetchFeedbackHold              // ICountFeedback held fetch on backend pressure
	EvFetchConfThrottle              // ConfThrottle slowed the fetch rate on low confidence
	EvFetchLowConf                   // a branch prediction was reported low-confidence
	EvICacheMissStall                // instruction cache miss stalled fetch
	EvDispatchStallFull              // dispatch stalled on a full scheduling unit
	EvDispatchWAWStall               // scoreboard mode: dispatch stalled on a busy destination register
	EvBTBCrossThreadHit              // shared-BTB lookup hit an entry last trained by another thread

	// Issue.
	EvIssueWidthSaturated   // a cycle issued the full issue width
	EvIssueFUExhausted      // a ready instruction found every unit of its class busy
	EvIssueCrossThread      // one cycle issued instructions from two or more threads
	EvLoadBlockedSyncOrder  // a load waited for an older unresolved sync primitive
	EvLoadBlockedAlias      // a load waited for an older store's unknown address or data
	EvLoadBlockedCrossAlias // restricted policy: a cross-block aliasing store forced the load to wait for the drain
	EvLoadForwardSameBlock  // a same-commit-block store forwarded its data to a load
	EvLoadForwardCross      // forwarding extension: a cross-block store forwarded to a load
	EvStoreBufferFull       // a store could not reserve a buffer slot (reservation rule)
	EvStoreBufferSaturated  // every store-buffer slot was occupied
	EvFAIBlockedSpec        // an FAI waited for an older unresolved control transfer
	EvSyncFencedFlagStore   // a sync read was fenced by an older undrained FSTW
	EvBadAddrSpeculative    // a wrong-path memory reference computed an illegal address

	// Writeback and selective squash.
	EvWritebackSaturated // more results were due than the writeback width
	EvMispredictSquash   // mispredict recovery fired
	EvSquashSurvivors    // a selective squash spared >= 4 older same-thread entries
	EvSquashSparesOthers // a squash left other threads' entries untouched in the SU
	EvSquashKilledStore  // a squash freed an uncommitted store-buffer slot
	EvSquashKilledLatch  // a squash dropped the fetch latch
	EvSquashRevivedFetch // a squash re-enabled a fetch stopped at HALT

	// Commit.
	EvCommitBottom       // a block committed from the bottom slot
	EvCommitAhead        // flexible commit fired ahead of a stalled older block
	EvCommitAheadDeep    // flexible commit fired from window slot 2 or higher
	EvCommitBlockedClash // a complete block was held back by a same-thread block below it
	EvSUStallFull        // the SU was full and nothing committed
	EvCommitHalt         // a HALT committed (a thread retired)

	// Data cache.
	EvCacheSecondMiss    // a second miss queued behind an active refill, blocking the cache
	EvCacheRefillOverlap // a hit was serviced while a refill was in flight
	EvCacheBlockedReject // a request was refused while the cache was blocked
	EvCacheEvictDirty    // a refill evicted a dirty line (write-back)
	EvCachePortReject    // a request was refused for lack of a free port
	EvStoreDrainBlocked  // a committed store's drain was rejected by the cache
	EvCacheL2Hit         // an L1 miss was served by an L2 tag hit
	EvCacheVictimHit     // an L1 miss recovered a line from the victim buffer
	EvCachePrefetchHit   // an L1 miss was served by a completed prefetch
	EvCachePrefetchEvict // a new prefetch evicted an unconsumed prefetch-buffer entry

	// Synchronization.
	EvFLDWSleep     // a thread re-read a flag and saw the same value (spin/sleep)
	EvFLDWWake      // a thread re-read a flag and saw a new value (wake)
	EvFAIContention // consecutive FAIs on one address came from different threads
	EvFlagHandoff   // a flag write landed on an address read since its last write

	// Whole-machine, sampled per cycle.
	EvSUEmptyBubble // the SU was empty while unhalted threads remained
	EvThreadStarved // an active thread had no entries in a non-empty SU

	NumEvents
)

// Group labels for display, in stage order.
const (
	GroupFrontend = "frontend"
	GroupIssue    = "issue"
	GroupSquash   = "squash"
	GroupCommit   = "commit"
	GroupCache    = "cache"
	GroupSync     = "sync"
	GroupMachine  = "machine"
)

// Info describes one event.
type Info struct {
	Name  string // stable kebab-case identifier
	Group string
	Desc  string
	// MustHit marks events the committed differential corpus is required
	// to reach under the default configuration (TestCoverageFloor).
	// Events needing a non-default configuration (a specific fetch
	// policy, scoreboarding, a real I-cache, port limits, the forwarding
	// extension) are informative but not floor-enforced.
	MustHit bool
	// Stress marks events reachable only through adversarial code shapes
	// or timing — peak-width issue/writeback bursts, in-flight
	// store-to-load aliasing, wrong-path fetch running off the text end,
	// loads racing unresolved sync primitives. Well-behaved paper kernels
	// are not expected to reach them; the coverage-guided generator
	// (internal/progen) is. The kernel coverage floor (CoreFraction)
	// therefore excludes them, while MustHit still includes them: the
	// committed corpus as a whole has to get there.
	Stress bool
}

var infos = [NumEvents]Info{
	EvFetchIdle:         {"fetch-idle", GroupFrontend, "no thread could fetch this cycle", true, false},
	EvFetchWrongPath:    {"fetch-wrong-path", GroupFrontend, "fetched block held no valid instruction", true, true},
	EvFetchTakenTrunc:   {"fetch-taken-trunc", GroupFrontend, "predicted-taken CT truncated the fetch block", true, false},
	EvFetchHaltStop:     {"fetch-halt-stop", GroupFrontend, "predecode stopped fetch at HALT", true, false},
	EvFetchPartialBlock: {"fetch-partial-block", GroupFrontend, "fetch entered an aligned block mid-way", true, false},
	EvFetchMaskedSkip:   {"fetch-masked-skip", GroupFrontend, "MaskedRR skipped the masked thread", false, false},
	EvFetchCondRotate:   {"fetch-cond-rotate", GroupFrontend, "CondSwitch rotated on a decode trigger", false, false},
	EvFetchICountSteer:  {"fetch-icount-steer", GroupFrontend, "ICount steered fetch away from a fuller thread", false, false},
	EvFetchFeedbackHold: {"fetch-feedback-hold", GroupFrontend, "ICountFeedback held fetch on backend pressure", false, false},
	EvFetchConfThrottle: {"fetch-conf-throttle", GroupFrontend, "ConfThrottle slowed fetch on low confidence", false, false},
	EvFetchLowConf:      {"fetch-low-conf", GroupFrontend, "a branch prediction was low-confidence", true, false},
	EvICacheMissStall:   {"icache-miss-stall", GroupFrontend, "instruction cache miss stalled fetch", false, false},
	EvDispatchStallFull: {"dispatch-stall-full", GroupFrontend, "dispatch stalled on a full SU", true, false},
	EvDispatchWAWStall:  {"dispatch-waw-stall", GroupFrontend, "scoreboard WAW stall at dispatch", false, false},
	EvBTBCrossThreadHit: {"btb-cross-thread-hit", GroupFrontend, "BTB hit an entry trained by another thread", true, false},

	EvIssueWidthSaturated:   {"issue-width-saturated", GroupIssue, "a cycle issued the full issue width", true, true},
	EvIssueFUExhausted:      {"issue-fu-exhausted", GroupIssue, "ready instruction found all units busy", true, false},
	EvIssueCrossThread:      {"issue-cross-thread", GroupIssue, "one cycle issued from two or more threads", true, false},
	EvLoadBlockedSyncOrder:  {"load-blocked-sync-order", GroupIssue, "load waited for an older unresolved sync", true, true},
	EvLoadBlockedAlias:      {"load-blocked-alias", GroupIssue, "load waited on an older store's unknown address/data", true, true},
	EvLoadBlockedCrossAlias: {"load-blocked-cross-alias", GroupIssue, "cross-block alias made the load wait for the drain", true, true},
	EvLoadForwardSameBlock:  {"load-forward-same-block", GroupIssue, "same-block store forwarded to a load", true, true},
	EvLoadForwardCross:      {"load-forward-cross", GroupIssue, "forwarding extension forwarded cross-block", false, false},
	EvStoreBufferFull:       {"store-buffer-full", GroupIssue, "store could not reserve a buffer slot", true, false},
	EvStoreBufferSaturated:  {"store-buffer-saturated", GroupIssue, "every store-buffer slot occupied", true, false},
	EvFAIBlockedSpec:        {"fai-blocked-speculative", GroupIssue, "FAI waited for an older unresolved CT", true, false},
	EvSyncFencedFlagStore:   {"sync-fenced-flag-store", GroupIssue, "sync read fenced by an older undrained FSTW", true, true},
	EvBadAddrSpeculative:    {"bad-addr-speculative", GroupIssue, "wrong-path reference computed an illegal address", true, true},

	EvWritebackSaturated: {"writeback-saturated", GroupSquash, "more results due than the writeback width", true, true},
	EvMispredictSquash:   {"mispredict-squash", GroupSquash, "mispredict recovery fired", true, false},
	EvSquashSurvivors:    {"squash-survivors", GroupSquash, "selective squash spared >= 4 same-thread entries", true, false},
	EvSquashSparesOthers: {"squash-spares-others", GroupSquash, "squash left other threads untouched", true, false},
	EvSquashKilledStore:  {"squash-killed-store", GroupSquash, "squash freed an uncommitted store slot", true, false},
	EvSquashKilledLatch:  {"squash-killed-latch", GroupSquash, "squash dropped the fetch latch", true, false},
	EvSquashRevivedFetch: {"squash-revived-fetch", GroupSquash, "squash re-enabled a HALT-stopped fetch", true, false},

	EvCommitBottom:       {"commit-bottom", GroupCommit, "block committed from the bottom slot", true, false},
	EvCommitAhead:        {"commit-ahead", GroupCommit, "flexible commit fired ahead of a stalled block", true, false},
	EvCommitAheadDeep:    {"commit-ahead-deep", GroupCommit, "flexible commit fired from slot >= 2", true, false},
	EvCommitBlockedClash: {"commit-blocked-clash", GroupCommit, "complete block held back by a same-thread block", true, false},
	EvSUStallFull:        {"su-stall-full", GroupCommit, "SU full and nothing committed", true, false},
	EvCommitHalt:         {"commit-halt", GroupCommit, "a HALT committed", true, false},

	EvCacheSecondMiss:    {"cache-second-miss", GroupCache, "second miss blocked the cache", true, false},
	EvCacheRefillOverlap: {"cache-refill-overlap", GroupCache, "hit serviced while a refill was in flight", true, false},
	EvCacheBlockedReject: {"cache-blocked-reject", GroupCache, "request refused while the cache was blocked", true, false},
	EvCacheEvictDirty:    {"cache-evict-dirty", GroupCache, "refill evicted a dirty line", true, false},
	EvCachePortReject:    {"cache-port-reject", GroupCache, "request refused for lack of a port", false, false},
	EvStoreDrainBlocked:  {"store-drain-blocked", GroupCache, "committed store's drain was rejected", true, false},
	EvCacheL2Hit:         {"cache-l2-hit", GroupCache, "L1 miss served by an L2 tag hit", false, false},
	EvCacheVictimHit:     {"cache-victim-hit", GroupCache, "L1 miss recovered a line from the victim buffer", false, false},
	EvCachePrefetchHit:   {"cache-prefetch-hit", GroupCache, "L1 miss served by a completed prefetch", false, false},
	EvCachePrefetchEvict: {"cache-prefetch-evict", GroupCache, "new prefetch evicted an unconsumed buffer entry", false, false},

	EvFLDWSleep:     {"fldw-sleep", GroupSync, "flag re-read saw the same value (spin)", true, false},
	EvFLDWWake:      {"fldw-wake", GroupSync, "flag re-read saw a new value (wake)", true, false},
	EvFAIContention: {"fai-contention", GroupSync, "consecutive FAIs from different threads", true, false},
	EvFlagHandoff:   {"flag-handoff", GroupSync, "flag write landed on an address read since its last write", true, false},

	EvSUEmptyBubble: {"su-empty-bubble", GroupMachine, "SU empty while threads remained", true, false},
	EvThreadStarved: {"thread-starved", GroupMachine, "active thread had no SU entries", true, false},
}

// String returns the event's stable kebab-case name.
func (e Event) String() string {
	if e >= NumEvents {
		return fmt.Sprintf("Event(%d)", int(e))
	}
	return infos[e].Name
}

// Describe returns the event's metadata.
func (e Event) Describe() Info { return infos[e] }

// Events lists every event in display (stage) order.
func Events() []Event {
	evs := make([]Event, NumEvents)
	for i := range evs {
		evs[i] = Event(i)
	}
	return evs
}

// MustHit lists the floor-enforced events in display order.
func MustHit() []Event {
	var evs []Event
	for e := Event(0); e < NumEvents; e++ {
		if infos[e].MustHit {
			evs = append(evs, e)
		}
	}
	return evs
}

// ByName resolves a stable event name.
func ByName(name string) (Event, bool) {
	for e := Event(0); e < NumEvents; e++ {
		if infos[e].Name == name {
			return e, true
		}
	}
	return 0, false
}

// Set is one run's (or one merged corpus's) event counters. Create
// with NewSet, hand it to a machine via Config.Coverage (which feeds it
// through a Recorder), read it after the run. Hit is allocation-free.
type Set struct {
	counts       [NumEvents]uint64
	inapplicable [NumEvents]bool
}

// NewSet returns an empty Set with every event applicable.
func NewSet() *Set { return &Set{} }

// Hit records one occurrence of e.
func (s *Set) Hit(e Event) { s.counts[e]++ }

// Count returns e's occurrence count.
func (s *Set) Count(e Event) uint64 { return s.counts[e] }

// MarkInapplicable excludes e from this Set's coverage denominator:
// the configuration or program cannot reach it.
func (s *Set) MarkInapplicable(e Event) { s.inapplicable[e] = true }

// Applicable reports whether e counts toward this Set's coverage.
func (s *Set) Applicable(e Event) bool { return !s.inapplicable[e] }

// Merge folds o into s: counts add, and an event applicable in either
// Set stays applicable (a corpus covers an event if any of its runs
// could, and did, reach it).
func (s *Set) Merge(o *Set) {
	for e := Event(0); e < NumEvents; e++ {
		s.counts[e] += o.counts[e]
		s.inapplicable[e] = s.inapplicable[e] && o.inapplicable[e]
	}
}

// Clone returns a deep copy.
func (s *Set) Clone() *Set {
	c := *s
	return &c
}

// Hits returns the number of applicable events with a non-zero count.
func (s *Set) Hits() int {
	n := 0
	for e := Event(0); e < NumEvents; e++ {
		if !s.inapplicable[e] && s.counts[e] > 0 {
			n++
		}
	}
	return n
}

// ApplicableCount returns the coverage denominator.
func (s *Set) ApplicableCount() int {
	n := 0
	for e := Event(0); e < NumEvents; e++ {
		if !s.inapplicable[e] {
			n++
		}
	}
	return n
}

// tierCounts tallies (hits, applicable) over events whose Stress flag
// matches stress.
func (s *Set) tierCounts(stress bool) (hits, applicable int) {
	for e := Event(0); e < NumEvents; e++ {
		if infos[e].Stress != stress || s.inapplicable[e] {
			continue
		}
		applicable++
		if s.counts[e] > 0 {
			hits++
		}
	}
	return hits, applicable
}

// CoreHits returns the number of applicable non-stress events hit.
func (s *Set) CoreHits() int { h, _ := s.tierCounts(false); return h }

// CoreApplicable returns the denominator of the kernel coverage floor:
// applicable events not marked Stress.
func (s *Set) CoreApplicable() int { _, a := s.tierCounts(false); return a }

// CoreFraction returns the kernel coverage floor metric: the fraction
// of applicable non-stress events hit (1 when none are applicable).
// Stress events are excluded — reaching those is the coverage-guided
// generator's job, enforced separately through MustHitGaps.
func (s *Set) CoreFraction() float64 {
	h, a := s.tierCounts(false)
	if a == 0 {
		return 1
	}
	return float64(h) / float64(a)
}

// Gaps lists the applicable events never hit, in display order.
func (s *Set) Gaps() []Event {
	var gaps []Event
	for e := Event(0); e < NumEvents; e++ {
		if !s.inapplicable[e] && s.counts[e] == 0 {
			gaps = append(gaps, e)
		}
	}
	return gaps
}

// MustHitGaps lists the floor-enforced events never hit (inapplicable
// or not — the floor is a promise about the corpus, so an event the
// corpus never even made applicable is still a gap).
func (s *Set) MustHitGaps() []Event {
	var gaps []Event
	for _, e := range MustHit() {
		if s.counts[e] == 0 {
			gaps = append(gaps, e)
		}
	}
	return gaps
}

// NewEventsOver lists events hit in s but not in base — the payoff
// metric of coverage-guided generation.
func (s *Set) NewEventsOver(base *Set) []Event {
	var evs []Event
	for e := Event(0); e < NumEvents; e++ {
		if s.counts[e] > 0 && base.counts[e] == 0 {
			evs = append(evs, e)
		}
	}
	return evs
}

// Summary renders the one-line form, splitting the kernel floor from
// the stress tier: "24/29 core events (82.8%), 0/7 stress".
func (s *Set) Summary() string {
	ch, ca := s.tierCounts(false)
	core := fmt.Sprintf("%d/%d core events (%.1f%%)", ch, ca, 100*s.CoreFraction())
	if sh, sa := s.tierCounts(true); sa > 0 {
		return fmt.Sprintf("%s, %d/%d stress", core, sh, sa)
	}
	return core
}

// WriteTable renders the per-event table: group, event, count, and a
// status column (hit, GAP, or n/a for inapplicable events), followed
// by the summary line and the gap list.
func (s *Set) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "group\tevent\tcount\tstatus")
	for e := Event(0); e < NumEvents; e++ {
		in := infos[e]
		status := "hit"
		switch {
		case s.inapplicable[e]:
			status = "n/a"
		case s.counts[e] == 0 && in.Stress:
			status = "gap (stress)"
		case s.counts[e] == 0:
			status = "GAP"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\n", in.Group, in.Name, s.counts[e], status)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "coverage: %s\n", s.Summary()); err != nil {
		return err
	}
	var core, stress []string
	for _, e := range s.Gaps() {
		if infos[e].Stress {
			stress = append(stress, e.String())
		} else {
			core = append(core, e.String())
		}
	}
	sort.Strings(core)
	sort.Strings(stress)
	if len(core) > 0 {
		if _, err := fmt.Fprintf(w, "gaps: %v\n", core); err != nil {
			return err
		}
	}
	if len(stress) > 0 {
		if _, err := fmt.Fprintf(w, "stress gaps: %v\n", stress); err != nil {
			return err
		}
	}
	return nil
}
