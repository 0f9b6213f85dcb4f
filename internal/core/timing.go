package core

import (
	"fmt"
	"strings"
	"time"
)

// Phase identifies one stage of Cycle for the opt-in wall-clock
// breakdown (Config.PhaseTiming, surfaced as Stats.PhaseTime). Memory
// covers store drain and load service; Other covers cache ticks, fault
// injection, the paranoid invariant walk, the watchdog, and per-cycle
// statistics.
type Phase int

const (
	PhaseCommit Phase = iota
	PhaseMemory
	PhaseWriteback
	PhaseIssue
	PhaseDispatch
	PhaseFetch
	PhaseOther
	NumPhases
)

var phaseNames = [NumPhases]string{
	"commit", "memory", "writeback", "issue", "dispatch", "fetch", "other",
}

func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return fmt.Sprintf("Phase(%d)", int(p))
	}
	return phaseNames[p]
}

// PhaseTimes accumulates wall-clock time per pipeline phase.
type PhaseTimes [NumPhases]time.Duration

// Add accumulates o into pt (used to aggregate across machines).
func (pt *PhaseTimes) Add(o PhaseTimes) {
	for i := range pt {
		pt[i] += o[i]
	}
}

// Total returns the summed wall-clock time across all phases.
func (pt PhaseTimes) Total() time.Duration {
	var sum time.Duration
	for _, d := range pt {
		sum += d
	}
	return sum
}

// String renders the breakdown as one line per phase with wall-share
// percentages, widest share first preserved in pipeline order.
func (pt PhaseTimes) String() string {
	total := pt.Total()
	var b strings.Builder
	for p := Phase(0); p < NumPhases; p++ {
		share := 0.0
		if total > 0 {
			share = 100 * float64(pt[p]) / float64(total)
		}
		fmt.Fprintf(&b, "%-10s %12v %6.2f%%\n", p, pt[p].Round(time.Microsecond), share)
	}
	fmt.Fprintf(&b, "%-10s %12v\n", "total", total.Round(time.Microsecond))
	return b.String()
}

// cycleTimed is Cycle with a wall-clock stopwatch between stages. It
// must mirror Cycle's stage order exactly (commit first; see Cycle).
// The duplication keeps the default path free of timer reads.
func (m *Machine) cycleTimed() {
	m.now++
	t0 := time.Now()
	m.dcache.Tick(m.now)
	if m.icache != nil {
		m.icache.Tick(m.now)
	}
	if m.cfg.Injector != nil {
		m.injectPredictorFlip()
		m.injectStoreBufferHold()
	}
	t0 = m.phaseAdd(PhaseOther, t0)
	m.commit()
	t0 = m.phaseAdd(PhaseCommit, t0)
	m.drainStores()
	m.serviceLoads()
	t0 = m.phaseAdd(PhaseMemory, t0)
	m.writeback()
	t0 = m.phaseAdd(PhaseWriteback, t0)
	m.issue()
	t0 = m.phaseAdd(PhaseIssue, t0)
	m.dispatch()
	t0 = m.phaseAdd(PhaseDispatch, t0)
	m.fetch()
	t0 = m.phaseAdd(PhaseFetch, t0)
	if m.fault == nil && m.cfg.CheckInvariants {
		if err := m.CheckInvariants(); err != nil {
			m.failf(FaultInvariant, "invariant check", -1, 0, "%v", err)
		}
	}
	m.watchdogCheck()
	m.cycleStats()
	m.phaseAdd(PhaseOther, t0)
}

// phaseAdd charges the time since t0 to phase p and returns the new
// stopwatch origin.
func (m *Machine) phaseAdd(p Phase, t0 time.Time) time.Time {
	now := time.Now()
	m.phaseTime[p] += now.Sub(t0)
	return now
}
