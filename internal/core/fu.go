package core

import "repro/internal/isa"

// fuUnit is one functional unit instance.
type fuUnit struct {
	busyUntil uint64 // unpipelined units: busy through this cycle
	lastIssue uint64 // pipelined units: accept one op per cycle
	issued    bool   // lastIssue is meaningful
	holder    int32  // entry index holding the unit until data returns, or -1
	heldSince uint64 // cycle the holder took the unit
	usedCyc   uint64 // occupancy, for Table 4 utilisation (a running hold excluded)
}

// fuPool is all units of one class.
type fuPool struct {
	class     isa.Class
	latency   uint64
	pipelined bool
	units     []fuUnit
}

func newPools(cfg FUConfig) []fuPool {
	pools := make([]fuPool, isa.NumClasses)
	for cl := isa.Class(0); cl < isa.NumClasses; cl++ {
		pools[cl] = fuPool{
			class:     cl,
			latency:   cfg.Latency[cl],
			pipelined: cfg.Pipelined[cl],
			units:     make([]fuUnit, cfg.Count[cl]),
		}
		for i := range pools[cl].units {
			pools[cl].units[i].holder = -1
		}
	}
	return pools
}

// free reports whether unit i can accept an op at cycle now.
func (p *fuPool) freeUnit(i int, now uint64) bool {
	u := &p.units[i]
	if u.holder >= 0 {
		return false
	}
	if p.pipelined {
		return !u.issued || u.lastIssue != now
	}
	return u.busyUntil <= now
}

// tryAcquire finds the lowest-numbered free unit, or -1.
func (p *fuPool) tryAcquire(now uint64) int {
	for i := range p.units {
		if p.freeUnit(i, now) {
			return i
		}
	}
	return -1
}

// issue occupies unit i at cycle now and returns the completion cycle.
func (p *fuPool) issue(i int, now uint64) uint64 {
	u := &p.units[i]
	if p.pipelined {
		u.lastIssue = now
		u.issued = true
		u.usedCyc++
	} else {
		u.busyUntil = now + p.latency
		u.usedCyc += p.latency
	}
	return now + p.latency
}

// hold parks entry e on unit i from cycle now until release
// (variable-latency loads).
func (p *fuPool) hold(i int, e *suEntry, now uint64) {
	p.units[i].holder = e.idx
	p.units[i].heldSince = now
}

// release frees a held unit at cycle now. A hold occupies the unit in
// every cycle from the one it began through the one before release, so
// the occupancy is charged here once rather than counted per cycle.
func (p *fuPool) release(i int, now uint64) {
	u := &p.units[i]
	u.holder = -1
	u.usedCyc += now - u.heldSince
}

// occupancy is the unit's busy cycles through the end of cycle now,
// including a hold still running.
func (u *fuUnit) occupancy(now uint64) uint64 {
	if u.holder >= 0 {
		return u.usedCyc + now + 1 - u.heldSince
	}
	return u.usedCyc
}
