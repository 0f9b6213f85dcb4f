package core

import (
	"repro/internal/cache"
	"repro/internal/cover"
	"repro/internal/isa"
)

// fetch selects a thread under the configured policy and brings one
// aligned block of four contiguous instructions into the decode latch.
func (m *Machine) fetch() {
	if m.fault != nil {
		return
	}
	if m.latch != nil {
		return // latch still waiting for dispatch
	}
	// Fault injection: the fetch slot may be stolen outright (no thread
	// fetches), or the policy's decision overridden to a different
	// eligible thread. Both are timing-only front-end perturbations.
	if inj := m.cfg.Injector; inj != nil && inj.FetchBlock(m.now) {
		m.stats.Faults.Add(ChanFetchBlock)
		m.stats.FetchIdle++
		return
	}
	t := m.selectThread()
	if t < 0 {
		m.stats.FetchIdle++
		m.hit(cover.EvFetchIdle)
		return
	}
	if inj := m.cfg.Injector; inj != nil && inj.FetchMisdecide(m.now) {
		if alt := m.nextEligibleAfter(t); alt != t {
			m.stats.Faults.Add(ChanFetchMisdecide)
			if m.obs != nil {
				m.obs.Observe(cover.Record{Kind: cover.KindFetchMisdecide, Cycle: m.now, Thread: t, A: uint64(alt)})
			}
			t = alt
		}
	}
	m.fetchBlockFor(t)
}

// nextEligibleAfter returns the next eligible thread after t in round-
// robin order, or t itself when no other thread can fetch.
func (m *Machine) nextEligibleAfter(t int) int {
	n := m.cfg.Threads
	for i := 1; i < n; i++ {
		alt := (t + i) % n
		if m.eligible(alt) {
			return alt
		}
	}
	return t
}

// eligible reports whether thread t can fetch this cycle.
func (m *Machine) eligible(t int) bool {
	return !m.halted[t] && !m.fetchStopped[t]
}

// Confidence meter bounds for the ConfThrottle policy: the meter rises
// by one on each high-confidence prediction, falls by two on each
// low-confidence one, and the fetch rate halves below confMeterHigh and
// quarters below confMeterLow.
const (
	confMeterMax  = 15
	confMeterHigh = 12
	confMeterLow  = 6
)

// selectThread implements the fetch policies: the paper's three (§5.1),
// the ICount sketch (§6.1), and the two throttled variants.
func (m *Machine) selectThread() int {
	n := m.cfg.Threads
	switch m.cfg.FetchPolicy {
	case TrueRR:
		// The modulo-N counter advances every clock tick irrespective of
		// thread state; an ineligible thread's slot is simply wasted.
		t := m.rrCounter % n
		m.rrCounter++
		if !m.eligible(t) {
			return -1
		}
		return t
	case MaskedRR:
		for i := 0; i < n; i++ {
			t := (m.rrCounter + i) % n
			if m.eligible(t) && t != m.maskedThread {
				if m.obs != nil && m.maskedThread >= 0 && m.eligible(m.maskedThread) {
					m.hit(cover.EvFetchMaskedSkip)
				}
				m.rrCounter = t + 1
				return t
			}
		}
		return -1
	case CondSwitch:
		for i := 0; i < n; i++ {
			t := (m.curThread + i) % n
			if m.eligible(t) {
				if t != m.curThread {
					m.stats.CondSwitches++
					m.curThread = t
					m.hit(cover.EvFetchCondRotate)
				}
				return t
			}
		}
		return -1
	case ICount:
		m.icountTally()
		return m.icountPick(n)
	case ICountFeedback:
		// ICount with backend-pressure feedback: when the window is more
		// than three-quarters occupied, hold fetch entirely for a cycle so
		// the backend drains instead of stacking more work behind a stall.
		if total := m.icountTally(); total*4 > m.cfg.SUEntries*3 {
			m.stats.FetchThrottled++
			m.hit(cover.EvFetchFeedbackHold)
			return -1
		}
		return m.icountPick(n)
	case ConfThrottle:
		// Variable fetch rate on prediction confidence: while the meter
		// says recent predictions are unreliable, fetching at full rate
		// mostly fills the window with likely-wrong-path work, so slow to
		// every second (low) or fourth (very low) cycle. Thread selection
		// is TrueRR's rotation.
		if gap := m.throttleGap(); gap > 1 && m.now%gap != 0 {
			m.stats.FetchThrottled++
			m.hit(cover.EvFetchConfThrottle)
			return -1
		}
		t := m.rrCounter % n
		m.rrCounter++
		if !m.eligible(t) {
			return -1
		}
		return t
	}
	// Unreachable: Config.Validate rejects unknown policies.
	m.failf(FaultInternal, "fetch", -1, 0, "unknown fetch policy %v", m.cfg.FetchPolicy)
	return -1
}

// icountTally refreshes m.icountOcc from the per-thread live-entry
// bitsets and returns the total in-flight count (window occupancy plus
// the latch). Each live entry has exactly one thread bit, so the
// per-thread popcounts sum to the window occupancy.
func (m *Machine) icountTally() int {
	counts := m.icountOcc
	total := 0
	for t := range counts {
		counts[t] = bsCount(m.threadBits[t])
		total += counts[t]
	}
	if m.latch != nil {
		counts[m.latch.thread] += BlockSize
		total += BlockSize
	}
	return total
}

// icountPick selects the eligible thread with the fewest in-flight
// instructions per m.icountOcc (judicious fetch: a stalled thread stops
// consuming fetch slots and window space). Ties rotate round-robin.
func (m *Machine) icountPick(n int) int {
	counts := m.icountOcc
	best, bestCount := -1, 0
	for i := 0; i < n; i++ {
		t := (m.rrCounter + i) % n
		if !m.eligible(t) {
			continue
		}
		if best < 0 || counts[t] < bestCount {
			best, bestCount = t, counts[t]
		}
	}
	if best >= 0 {
		if m.obs != nil {
			for t := 0; t < n; t++ {
				if t != best && m.eligible(t) && counts[t] > bestCount {
					m.hit(cover.EvFetchICountSteer)
					break
				}
			}
		}
		m.rrCounter = best + 1
	}
	return best
}

// throttleGap maps the confidence meter to a fetch period: 1 cycle at
// high confidence, 2 below confMeterHigh, 4 below confMeterLow.
func (m *Machine) throttleGap() uint64 {
	switch {
	case m.confMeter >= confMeterHigh:
		return 1
	case m.confMeter >= confMeterLow:
		return 2
	}
	return 4
}

// noteConf feeds one prediction's confidence into the throttle meter:
// up one when confident, down two when not (misses hurt more than hits
// help, so a burst of cold branches slows fetch quickly).
func (m *Machine) noteConf(conf bool) {
	if conf {
		if m.confMeter < confMeterMax {
			m.confMeter++
		}
		return
	}
	m.confMeter -= 2
	if m.confMeter < 0 {
		m.confMeter = 0
	}
}

// rotateThread moves CondSwitch to the next thread (called when the
// decoder sees a switch trigger), and reports whether one was eligible.
func (m *Machine) rotateThread() bool {
	n := m.cfg.Threads
	for i := 1; i <= n; i++ {
		t := (m.curThread + i) % n
		if m.eligible(t) {
			m.curThread = t
			m.stats.CondSwitches++
			return true
		}
	}
	return false
}

// fetchBlockFor reads the aligned 4-instruction block containing thread
// t's PC, predicting control transfers with the shared BTB. Slots before
// the PC and after a predicted-taken CT are invalid (the fetch-slot
// waste the paper's alignment improvement addresses).
func (m *Machine) fetchBlockFor(t int) {
	pc := m.pc[t]
	text := m.texts[m.slotOf[t]]
	base := pc &^ (BlockSize*4 - 1)
	if m.icache != nil {
		// One I-cache access covers the aligned block (the 32-byte line
		// always contains the whole 16-byte block). A miss wastes the
		// fetch slot while the line refills.
		if base/4 < uint32(len(text)) {
			if _, res := m.icache.Read(m.physAddr(t, base), m.now, true); res != cache.Hit {
				m.stats.ICacheStalls++
				m.hit(cover.EvICacheMissStall)
				return
			}
		}
	}
	if pc != base {
		m.hit(cover.EvFetchPartialBlock)
	}
	// Collect the block's predictor probes — branch and JALR addresses
	// from the first fetched slot up to the first slot predecode itself
	// resolves (beyond-text, HALT, or JAL, which is always taken) — and
	// present them to the predictor as one batch. A predicted-taken
	// probe truncates the block; LookupBlock stops there and reports
	// how many probes it consumed, each counted exactly as one Lookup.
	np := 0
	for s := 0; s < BlockSize; s++ {
		addr := base + uint32(s)*4
		if addr < pc {
			continue
		}
		idx := addr / 4
		if idx >= uint32(len(text)) {
			break
		}
		d := &text[idx]
		if op := d.inst.Op; op == isa.HALT || op == isa.JAL {
			break
		}
		if d.ct {
			m.probePCs[np] = addr
			np++
		}
	}
	consumed := 0
	if np > 0 {
		consumed = m.predFor(t).LookupBlock(t, m.probePCs[:np], m.probeOut[:np])
		for k := 0; k < consumed; k++ {
			conf := m.probeOut[k].Conf
			m.noteConf(conf)
			if m.obs != nil {
				if !conf {
					m.hit(cover.EvFetchLowConf)
				}
				if m.sharedBTB() {
					m.obs.Observe(cover.Record{Kind: cover.KindBTBLookup, Cycle: m.now, Thread: t, PC: m.probePCs[k]})
				}
			}
		}
	}
	// The machine holds at most one latch, so the decode buffer is a
	// single reused struct; reset it fully (a squash may have killed a
	// previous latch mid-flight, leaving stale slots behind).
	fb := &m.fbuf
	*fb = fetchBlock{thread: t}
	next := base + BlockSize*4
	anyValid := false
	k := 0
	for s := 0; s < BlockSize; s++ {
		addr := base + uint32(s)*4
		if addr < pc {
			continue // pre-PC slot of the aligned block
		}
		idx := addr / 4
		if idx >= uint32(len(text)) {
			break // wrong-path fetch beyond text: empty slots
		}
		d := &text[idx]
		fb.insts[s] = *d
		fb.pcs[s] = addr
		fb.valid[s] = true
		anyValid = true

		in := d.inst
		if in.Op == isa.HALT {
			// Predecode stops fetch at HALT; resumed only by a squash.
			m.fetchStopped[t] = true
			m.hit(cover.EvFetchHaltStop)
			next = addr + 4
			break
		}
		if !d.ct {
			continue
		}
		var taken bool
		var target uint32
		if in.Op == isa.JAL {
			// JAL targets are computable by predecode; never mispredicts.
			taken, target = true, isa.CTTarget(in, addr, 0)
		} else {
			bp := m.probeOut[k]
			k++
			// A not-taken probe's target is already zero (every
			// implementation demotes taken-without-target to fall-through).
			taken, target = bp.Taken, bp.Target
		}
		fb.pred[s] = predInfo{taken: taken, target: target}
		if taken {
			if s < BlockSize-1 {
				m.hit(cover.EvFetchTakenTrunc)
			}
			next = target
			break
		}
	}
	m.pc[t] = next
	if !anyValid {
		m.hit(cover.EvFetchWrongPath)
		return // wrong-path fetch produced nothing; PC still advances
	}
	m.latch = fb
	if m.obs != nil {
		m.obs.Observe(cover.Record{Kind: cover.KindFetch, Cycle: m.now, Thread: t, PC: base, A: uint64(next)})
	}
	m.stats.FetchedBlocks++
	for s := 0; s < BlockSize; s++ {
		if fb.valid[s] {
			m.stats.FetchedInsts++
		}
	}
}

// dispatch decodes the latch block into the scheduling unit: one entry
// per valid instruction, renamed with globally unique tags, operands
// resolved against the register-producer table (the decoder's
// associative lookup, kept as a direct-mapped table over physical
// registers) then the register file.
func (m *Machine) dispatch() {
	if m.fault != nil || m.latch == nil {
		return
	}
	if len(m.su) == m.suCap {
		m.stats.DispatchStall++
		m.hit(cover.EvDispatchStallFull)
		return
	}
	fb := m.latch

	if !m.cfg.Renaming && m.latchWAWStalled() {
		m.stats.DispatchStall++
		m.hit(cover.EvDispatchWAWStall)
		return
	}

	b := m.newBlock(fb.thread)
	es := m.blockEnts(b)
	trigger := false
	for s := range es {
		e := &es[s]
		if !fb.valid[s] {
			e.valid = false // a hole
			continue
		}
		d := &fb.insts[s]
		m.nextTag++
		*e = suEntry{valid: true, idx: b.bi*BlockSize + int32(s)}
		e.tag = m.nextTag
		e.thread = fb.thread
		e.pc = fb.pcs[s]
		e.inst = d.inst
		e.class, e.ct = d.class, d.ct
		e.dst = int16(m.physReg(fb.thread, d.rd))
		e.predTaken = fb.pred[s].taken
		e.predTarget = fb.pred[s].target
		// Rename before registering e's own destination, so an
		// instruction reading its destination register sees the previous
		// writer, not itself.
		m.renameSources(e, d)
		m.suEnter(e)
		if e.dst >= 0 {
			m.busyReg[e.dst] = e.tag + 1
			m.regProd[e.dst] = e.idx
		}
		if d.trigger {
			trigger = true
		}
	}
	m.su = append(m.su, b)
	if m.obs != nil {
		for s := range es {
			if es[s].valid {
				m.observe(cover.KindDispatch, &es[s], 0, 0)
			}
		}
	}
	m.latch = nil
	if trigger && m.cfg.FetchPolicy == CondSwitch && m.rotateThread() {
		m.hit(cover.EvFetchCondRotate)
	}
}

// latchWAWStalled reports whether scoreboard mode (Renaming off) stalls
// the latch block: some destination register of the block has an
// in-flight writer (the 1-bit WAW stall).
func (m *Machine) latchWAWStalled() bool {
	fb := m.latch
	for s := 0; s < BlockSize; s++ {
		if !fb.valid[s] {
			continue
		}
		if p := m.physReg(fb.thread, fb.insts[s].rd); p >= 0 && m.busyReg[p] != 0 {
			return true
		}
	}
	return false
}

// renameSources resolves the source operands of e, decoded as d,
// against the newest in-flight producers (including earlier slots of
// the block being dispatched, which registered themselves just before)
// then the register file.
func (m *Machine) renameSources(e *suEntry, d *decoded) {
	e.nsrc = int(d.nsrc)
	for i := 0; i < e.nsrc; i++ {
		e.src[i] = m.lookupOperand(e.thread, d.srcs[i])
	}
	// Immediate-operand ALU forms carry the immediate as the second
	// operand value. LUI has no register source at all.
	if d.hasImm {
		if e.nsrc == 0 {
			e.src[0] = operand{ready: true}
		}
		e.src[1] = operand{ready: true, value: d.immOp}
		e.nsrc = 2
	}
}

// lookupOperand performs the decoder's associative lookup: the most
// recent in-flight producer of (thread, reg) wins; otherwise the value
// comes from the register file. The register-producer table gives the
// answer in O(1) — dispatch registers writers, commit retires them, and
// squashes rebuild the squashing thread's partition.
func (m *Machine) lookupOperand(thread int, reg uint8) operand {
	if reg == 0 {
		return operand{ready: true, value: 0}
	}
	p := m.physReg(thread, reg)
	if p < 0 {
		return operand{ready: true} // out-of-budget (faulted) reads as zero
	}
	if pi := m.regProd[p]; pi >= 0 {
		return producerOperand(&m.ents[pi], m.cfg.Bypassing)
	}
	return operand{ready: true, value: m.regs[p]}
}

// producerOperand captures a value from a completed producer or a tag
// from an in-flight one.
func producerOperand(p *suEntry, bypassing bool) operand {
	if p.state == stDone {
		readyAt := p.wbCycle
		if !bypassing {
			readyAt++
		}
		return operand{ready: true, value: p.result, readyAt: readyAt}
	}
	return operand{tag: p.tag}
}
