package core

import (
	"math/bits"

	"repro/internal/cache"
	"repro/internal/cover"
	"repro/internal/isa"
)

// Idle-cycle fast-forward.
//
// Long stalls — a load miss refilling under a full window, a drain
// blocked behind a second miss, a store-buffer backlog — make the
// simulator spend most of its wall time executing cycles in which
// provably nothing can change: no entry can issue, write back, commit,
// or drain, and the front end is stalled or starved. fastForward
// detects such spans and replays them as "light" cycles. A light cycle
// calls the stages that still act in an inert cycle — the injector
// consults, commit, dispatch, fetch, and the end-of-cycle statistics —
// and skips the scans of writeback, issue, and the memory stage, whose
// only effects it replays as counters.
//
// The skip is bit-identical by construction, not by approximation:
//
//   - Every precondition is conservative. A cycle is skipped only when
//     each stage, examined against the frozen machine state, can be
//     shown to take its no-op path: commit finds no legal block even
//     under the full configured window (injected window shrinks are
//     strict restrictions, so they cannot enable a choice the full
//     window rejects); the drain head and every pending load would get
//     Busy from the cache (classified by cache.FFProbe, which is pure);
//     every waiting entry is provably unable to issue — missing a
//     source value (silent until a writeback, which bounds the skip),
//     waiting on a bypass window (its readyAt bounds the skip), or
//     refused by issueVerdict — the same verdict tryIssue acts on —
//     for a frozen reason whose only per-cycle effect is the counter
//     noteRefusal bumps; and the front end is stalled (dispatch on a
//     full window or a WAW claim, or fetch finding no eligible thread
//     or throttled).
//   - The skip ends strictly before the first cycle anything could
//     change: the earliest in-flight completion, the earliest cache
//     refill landing or forced-delay expiry any waiter is blocked on,
//     the watchdog's firing cycle, and (for a confidence-throttled
//     front end with eligible threads) the next unthrottled fetch
//     slot. That boundary cycle runs through the full pipeline.
//   - Deferred work is order-insensitive. Cache refills complete by
//     their recorded timestamps (Tick chains on the refill's finish
//     time, not the wall clock) and no cache access happens during a
//     skip, so running Tick late at the boundary installs exactly the
//     lines it would have installed on time. The invariant checker and
//     watchdog are pure reads of state the skip does not change.
//
// The ffdiff test tier replays every committed fault schedule with the
// fast-forward on and off and asserts identical cycle counts, stats,
// and coverage; bench-check compares fast-forwarded runs against
// cycle counts recorded before the fast-forward existed.

// ffDefaultMinSkip is the shortest span worth skipping: below this the
// precondition work rivals just running the cycles.
const ffDefaultMinSkip = 4

// fastForward skips from m.now to the last provably inert cycle before
// the next event, bounded by the runaway limit. Reports whether any
// cycles were skipped; the caller re-enters the normal loop so the
// boundary cycle executes in full.
func (m *Machine) fastForward(limit uint64) bool {
	minSkip := uint64(m.cfg.FFMinSkip)
	if minSkip == 0 {
		minSkip = ffDefaultMinSkip
	}
	// Squashed entries lingering in the lazy-cleanup lists are dropped
	// (with counter updates) by the next writeback/serviceLoads pass, so
	// their presence is a state change the skip must not jump over.
	if m.sqComp != 0 || m.sqPend != 0 {
		return false
	}

	// next is the first cycle at which anything could change.
	next := ^uint64(0)

	// Results in flight: the earliest writeback. Entries left over from
	// a saturated writeback have completeAt <= now and force next below
	// the threshold, refusing the skip.
	for _, ei := range m.completions {
		if c := m.ents[ei].completeAt; c < next {
			next = c
		}
	}
	if next <= m.now+minSkip {
		return false
	}

	// Commit: the selection must choose nothing under the full
	// configured window. Injected shrinks only restrict the choice, so
	// they cannot make a refused window commit.
	win := m.cfg.CommitWindow
	if m.cfg.CommitPolicy == LowestOnly {
		win = 1
	}
	if win > len(m.su) {
		win = len(m.su)
	}
	if m.doneBlocks > 0 {
		for i := 0; i < win; i++ {
			b := m.su[i]
			if !b.done() {
				continue
			}
			clash := false
			for j := 0; j < i; j++ {
				if m.su[j].thread == b.thread {
					clash = true
					break
				}
			}
			if !clash {
				return false // commit would pop this block
			}
		}
	}

	// Store drain: the head must be a committed SW whose access is
	// already counted and whose retry stays Busy. An FSTW head drains
	// unconditionally, a bad address faults, and an uncounted retry
	// would bump hit-rate counters — all real events.
	headDrain := len(m.drainQueue) > 0
	if headDrain {
		so := &m.sops[m.drainQueue[0]]
		e := &m.ents[so.entry]
		if e.badAddr || e.inst.Op != isa.SW || !so.counted {
			return false
		}
		res, at := m.dcache.FFProbe(e.addr, m.now+1)
		if res != cache.Busy {
			return false
		}
		if at < next {
			next = at
		}
	}

	// Pending loads: every retry must be counted and stay Busy, under
	// the same port arbitration the real cycle applies — the drain head
	// takes the first port, then loads in list order; rejects beyond
	// the port cap never reach the cache, so only in-port requests are
	// probed (and bound the skip). nb/np are the per-cycle reject
	// counts FFRetryAccount replays.
	cacheBlocked := m.dcache.Blocked()
	nb, np := 0, 0
	if cacheBlocked {
		if headDrain {
			nb++
		}
		nb += len(m.pendingLoads)
		for _, ei := range m.pendingLoads {
			if !m.ents[ei].counted {
				return false
			}
		}
		if !headDrain && len(m.pendingLoads) > 0 {
			// The blocked cache rejects everything until the active refill
			// lands; any waiter's probe reports that boundary.
			if _, at := m.dcache.FFProbe(m.ents[m.pendingLoads[0]].addr, m.now+1); at < next {
				next = at
			}
		}
	} else {
		used := 0
		if headDrain {
			used = 1
		}
		ports := m.dcache.PortLimit()
		for _, ei := range m.pendingLoads {
			e := &m.ents[ei]
			if !e.counted {
				return false
			}
			if ports > 0 && used >= ports {
				np++
				continue
			}
			used++
			res, at := m.dcache.FFProbe(e.addr, m.now+1)
			if res != cache.Busy {
				return false
			}
			if at < next {
				next = at
			}
		}
	}

	// The watchdog fires the first cycle past the progress limit; that
	// cycle must run for real so the deadlock diagnostic is identical.
	if wl := m.cfg.watchdogLimit(); wl != 0 {
		if fire := m.lastProgress + wl + 1; fire < next {
			next = fire
		}
	}

	// Front end: dispatch must stall on a full window or a WAW claim, or
	// fetch must find no thread (or be throttled). Either way the cycle's
	// only effects are the counters dispatch and fetch bump, and the
	// light cycles call them.
	if m.latch != nil {
		if len(m.su) < m.suCap && (m.cfg.Renaming || !m.latchWAWStalled()) {
			return false // dispatch would drain the latch
		}
	} else {
		anyElig := false
		for t := 0; t < m.cfg.Threads; t++ {
			if m.eligible(t) {
				anyElig = true
				break
			}
		}
		switch m.cfg.FetchPolicy {
		case MaskedRR:
			// Commit chooses nothing, so it masks the bottom block's thread
			// (none when the SU is empty) for the whole span.
			masked := -1
			if len(m.su) > 0 {
				masked = m.su[0].thread
			}
			for t := 0; t < m.cfg.Threads; t++ {
				if m.eligible(t) && t != masked {
					return false
				}
			}
		case ICountFeedback:
			// Backend pressure holds fetch regardless of eligibility.
			if anyElig && m.suOcc*4 <= m.cfg.SUEntries*3 {
				return false
			}
		case ConfThrottle:
			if gap := m.throttleGap(); anyElig {
				if gap == 1 {
					return false
				}
				// Throttled cycles are inert even with eligible threads, but
				// the next unthrottled slot (n%gap == 0) would fetch.
				if nu := ((m.now + gap) / gap) * gap; nu < next {
					next = nu
				}
			}
		default: // TrueRR, CondSwitch, ICount
			if anyElig {
				return false
			}
		}
	}

	// Issue: every waiting entry must be provably unable to issue for
	// the whole span. Entries missing a source value (unreadyBits) are
	// silent until a writeback. Entries with all values fall into three
	// cases: a future readyAt (silent until then — it bounds the skip);
	// a refusal from issueVerdict, frozen by the same invariants that
	// freeze everything else (store buffer, sync state, FU pools), whose
	// only effect is its counter — recorded here and replayed each light
	// cycle; or a genuine issue opportunity, which refuses the skip. A
	// sync op that passes its ordering rules under a fault schedule
	// consults the injector, a side effect, so it refuses the skip too.
	// This is the most expensive precondition (per-entry alias scans), so
	// it runs last: busy cycles refuse on the cheap checks above without
	// paying for it.
	blocked := m.ffBlocked[:0]
	var ld loadPath
	for wi, w := range m.waitBits {
		g := w &^ m.unreadyBits[wi]
		for g != 0 {
			pos := int32((wi << 6) + bits.TrailingZeros64(g))
			g &= g - 1
			e := &m.ents[m.entryAt(pos)]
			if !e.ready(m.now) {
				// All values present; the bypass window opens at the
				// latest readyAt, and the entry is silent until then.
				rAt := uint64(0)
				for i := 0; i < e.nsrc; i++ {
					if r := e.src[i].readyAt; r > rAt {
						rAt = r
					}
				}
				if rAt < next {
					next = rAt
				}
				continue
			}
			c := e.inst.Op.FUClass()
			ref, _ := m.issueVerdict(e, c, m.now+1, 0, &ld)
			if ref == refNone {
				return false
			}
			if ref == refFUExhausted {
				// Under a fault schedule a sync op past its ordering rules
				// consults the injector, and a held store-buffer slot can
				// turn a store's unit refusal into a full-buffer one.
				if m.cfg.Injector != nil && (c == isa.ClassSync || c == isa.ClassStore) {
					return false
				}
				if at := m.pools[c].freesAt(); at < next {
					next = at
				}
			}
			blocked = append(blocked, ref)
		}
	}
	m.ffBlocked = blocked

	last := next - 1 // last inert cycle
	if last > limit {
		last = limit // Run's runaway check triggers identically at the limit
	}
	if last < m.now+minSkip {
		return false
	}

	// Committed: the span (m.now, last] is inert. Each light cycle runs
	// the stages that still act — the injector consults, commit's
	// no-choice bookkeeping, dispatch and fetch stalls, end-of-cycle
	// statistics — and replays the rest: drain and load retries as
	// rejection accounting, and each blocked entry's refusal.
	start := m.now
	for n := start + 1; n <= last; n++ {
		m.now = n
		if m.cfg.Injector != nil {
			m.injectPredictorFlip()
			m.injectStoreBufferHold()
		}
		m.commit()
		if headDrain && m.cov != nil {
			m.cov.Hit(cover.EvStoreDrainBlocked)
		}
		if nb > 0 || np > 0 {
			m.dcache.FFRetryAccount(nb, np)
		}
		for _, r := range m.ffBlocked {
			m.noteRefusal(r)
		}
		m.dispatch()
		m.fetch()
		m.cycleStats()
	}
	m.ffSkipped += last - start
	return true
}

// FFSkipped reports how many cycles the idle fast-forward replayed in
// batch instead of through the full per-stage loop. It is diagnostic
// only — never part of Stats, so fast-forwarded and plain runs stay
// comparable field for field.
func (m *Machine) FFSkipped() uint64 { return m.ffSkipped }
